package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/mat"
)

// alignedCopy returns b copied into 8-byte-aligned memory, the way an mmap
// base address is always aligned; plain []byte test buffers may not be.
func alignedCopy(b []byte) []byte {
	buf := make([]uint64, (len(b)+7)/8+1)
	out := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), len(b))
	copy(out, b)
	return out
}

// syntheticModel builds a servable model without fitting: random full core,
// random factors. Factor 0's data block exceeds a 4KiB page, so the
// aliased value slices span page boundaries in the mapped file.
func syntheticModel(tb testing.TB, seed int64, dims, ranks []int) *Model {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	factors := make([]*mat.Dense, len(dims))
	for k, d := range dims {
		data := make([]float64, d*ranks[k])
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		factors[k] = mat.NewDenseData(d, ranks[k], data)
	}
	g := NewRandomCore(ranks, rng)
	return &Model{Factors: factors, Core: g, Config: Defaults(ranks)}
}

// swapFirstTwoEntries exchanges core entries 0 and 1, breaking the offset
// order of any core with at least two entries, and rebuilds the kernel's
// index for the new entry list.
func swapFirstTwoEntries(g *CoreTensor) {
	n := g.Order()
	for k := 0; k < n; k++ {
		g.idx[k], g.idx[n+k] = g.idx[n+k], g.idx[k]
	}
	g.val[0], g.val[1] = g.val[1], g.val[0]
	g.index()
}

func encodeModel(tb testing.TB, m *Model) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return alignedCopy(buf.Bytes())
}

// The tentpole property: a mapped model predicts bit-identically to both the
// in-memory original and the heap-decoded copy, with its bulk arrays
// aliasing the mapping rather than the heap.
func TestModelFromMappingBitIdenticalAndZeroCopy(t *testing.T) {
	dims := []int{600, 50, 40} // factor 0 data = 600·4·8 B ≫ one 4KiB page
	m := syntheticModel(t, 7, dims, []int{4, 3, 2})
	data := encodeModel(t, m)

	heap, err := ReadModel(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := ModelFromMapping(data)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(8))
	idx := make([]int, len(dims))
	for i := 0; i < 500; i++ {
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		want := m.Predict(idx)
		if got := mapped.Predict(idx); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("mapped prediction at %v = %v, original %v", idx, got, want)
		}
		if got := heap.Predict(idx); math.Float64bits(got) != math.Float64bits(mapped.Predict(idx)) {
			t.Fatalf("heap and mapped predictions differ at %v", idx)
		}
	}

	// Zero-copy: the factor data and core arrays must point into data, not
	// onto the heap.
	base := uintptr(unsafe.Pointer(&data[0]))
	end := base + uintptr(len(data))
	within := func(p unsafe.Pointer) bool {
		u := uintptr(p)
		return u >= base && u < end
	}
	for k, a := range mapped.Factors {
		if len(a.Data()) > 0 && !within(unsafe.Pointer(&a.Data()[0])) {
			t.Fatalf("factor %d data does not alias the mapping", k)
		}
	}
	if !within(unsafe.Pointer(&mapped.Core.val[0])) || !within(unsafe.Pointer(&mapped.Core.idx[0])) {
		t.Fatal("core entries do not alias the mapping")
	}

	// Everything the heap reader reconstructs, the mapped reader must too.
	if mapped.Config.Seed != m.Config.Seed || mapped.Config.Lambda != m.Config.Lambda {
		t.Fatalf("config changed: %+v vs %+v", mapped.Config, m.Config)
	}
	if mapped.Core.NNZ() != m.Core.NNZ() || !mapped.Core.offsetSorted() {
		t.Fatalf("core nnz %d (offset-sorted %v), want %d offset-sorted",
			mapped.Core.NNZ(), mapped.Core.offsetSorted(), m.Core.NNZ())
	}
}

// Pre-v4 streams (no aligned blocks, u32 indices) are the heap decoder's
// job: the mapper must say ErrNotMappable, not misparse.
func TestModelFromMappingRejectsOldVersions(t *testing.T) {
	m, _ := fittedModel(t, 11)
	var buf bytes.Buffer
	if err := writeModelV1(m, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ModelFromMapping(alignedCopy(buf.Bytes())); !errorIs(err, ErrNotMappable) {
		t.Fatalf("v1 stream: err = %v, want ErrNotMappable", err)
	}
}

func TestModelFromMappingRejectsMisalignedBase(t *testing.T) {
	m := syntheticModel(t, 9, []int{20, 16, 12}, []int{2, 2, 2})
	data := encodeModel(t, m)
	shifted := alignedCopy(append(make([]byte, 1), data...))[1:]
	if uintptr(unsafe.Pointer(&shifted[0]))&7 == 0 {
		t.Fatal("test bug: shifted buffer still aligned")
	}
	if _, err := ModelFromMapping(shifted); !errorIs(err, ErrNotMappable) {
		t.Fatalf("misaligned base: err = %v, want ErrNotMappable", err)
	}
}

// A truncated mapping — the tail cut off, or bytes missing from the middle
// with the footer intact — must be rejected, never parsed past its end.
func TestModelFromMappingTruncated(t *testing.T) {
	m := syntheticModel(t, 10, []int{64, 48, 32}, []int{3, 3, 3})
	data := encodeModel(t, m)

	for _, cut := range []int{1, 4, footerSize, footerSize + 4, len(data) / 2} {
		if _, err := ModelFromMapping(alignedCopy(data[:len(data)-cut])); err == nil {
			t.Fatalf("mapping truncated by %d bytes was accepted", cut)
		}
	}
	// Middle excision keeps the footer but desyncs everything behind it.
	mid := append([]byte(nil), data[:1024]...)
	mid = append(mid, data[1024+64:]...)
	if _, err := ModelFromMapping(alignedCopy(mid)); err == nil {
		t.Fatal("mapping with 64 bytes excised mid-stream was accepted")
	}
}

// writeModelV4Lying re-encodes m in the v4 layout with both CRCs computed
// over the stream as written, but with one field lying — the "checksums say
// fine, the fields say otherwise" attack the readers' checks must stop.
// field "nnz" or "rows" inflates that length by lie; field "flags" sets the
// sorted bit whatever the entry order is; field "retired" fills the retired
// config slots with values WriteTo never writes (update-core 1, chunk size
// 3, sample rate 0.5), as an older build could have.
func writeModelV4Lying(tb testing.TB, m *Model, field string, lie uint64) []byte {
	tb.Helper()
	var buf bytes.Buffer
	cw := &countingWriter{w: &buf}
	crc := crc32.NewIEEE()
	metaCRC := crc32.NewIEEE()
	bw := &binWriter{
		w:   io.MultiWriter(cw, crc, metaCRC),
		blk: io.MultiWriter(cw, crc),
	}
	pad := func() {
		if p := int(-cw.n & 7); p > 0 {
			var zeros [8]byte
			bw.write(zeros[:p])
		}
	}

	bw.write([]byte(modelMagic))
	bw.write(uint32(modelVersion))
	c := m.Config
	bw.writeInts(c.Ranks)
	bw.write(c.Lambda)
	bw.write(int64(c.MaxIters))
	bw.write(c.Tol)
	bw.write(int64(c.Threads))
	bw.write(int64(c.Method))
	bw.write(c.TruncationRate)
	bw.write(int64(c.Scheduling))
	bw.write(c.Seed)
	if field == "retired" {
		bw.write(uint8(1))
		bw.write(int64(3))
		bw.write(0.5)
	} else {
		bw.write(uint8(0))
		bw.write(int64(8))
		bw.write(float64(0))
	}
	bw.write(c.Sparsify)

	bw.write(uint64(len(m.Factors)))
	for k, a := range m.Factors {
		rows := uint64(a.Rows())
		if field == "rows" && k == 0 {
			rows += lie
		}
		bw.write(rows)
		bw.write(uint64(a.Cols()))
		pad()
		bw.writeBlock(a.Data()) // the true data: fewer bytes than claimed
	}

	g := m.Core
	var flags uint8
	if g.offsetSorted() || field == "flags" {
		flags |= coreFlagSorted
	}
	bw.write(flags)
	bw.writeInts(g.dims)
	nnz := uint64(g.NNZ())
	if field == "nnz" {
		nnz += lie
	}
	bw.write(nnz)
	pad()
	bw.writeIntsAsI64Block(g.idx)
	bw.writeBlock(g.val)

	bw.write(uint64(len(m.Trace)))
	for _, it := range m.Trace {
		bw.write(int64(it.Iter))
		bw.write(it.Error)
		bw.write(int64(it.Elapsed))
		bw.write(int64(it.CoreNNZ))
	}
	bw.write(boolByte(m.Converged))
	bw.write(m.TrainError)
	bw.write(m.IntermediateBytes)
	bw.write(int64(m.FinalCoreNNZ))
	bw.write(uint64(len(m.WorkPerThread)))
	bw.write(m.WorkPerThread)
	if bw.err != nil {
		tb.Fatal(bw.err)
	}
	if err := binary.Write(cw, binary.LittleEndian, crc.Sum32()); err != nil {
		tb.Fatal(err)
	}
	if err := binary.Write(cw, binary.LittleEndian, metaCRC.Sum32()); err != nil {
		tb.Fatal(err)
	}
	if _, err := cw.Write([]byte(footerMagic)); err != nil {
		tb.Fatal(err)
	}
	return alignedCopy(buf.Bytes())
}

func TestModelFromMappingRejectsLyingLengths(t *testing.T) {
	m := syntheticModel(t, 12, []int{40, 30, 20}, []int{3, 2, 2})
	for _, field := range []string{"nnz", "rows"} {
		for _, lie := range []uint64{1, 1000, 1 << 28} {
			data := writeModelV4Lying(t, m, field, lie)
			if _, err := ModelFromMapping(data); err == nil {
				t.Fatalf("stream lying about %s by %d was accepted", field, lie)
			}
			// The heap decoder must refuse it too (its CRC covers the blocks).
			if _, err := ReadModel(bytes.NewReader(data)); err == nil {
				t.Fatalf("heap reader accepted stream lying about %s by %d", field, lie)
			}
		}
	}
	// Sanity: the lying encoder with no lie produces an accepted stream, so
	// the rejections above are about the lie, not the encoder.
	data := writeModelV4Lying(t, m, "none", 0)
	if _, err := ModelFromMapping(data); err != nil {
		t.Fatalf("truthful control stream rejected: %v", err)
	}
}

// The update-core, chunk-size and sample-rate slots are retired: a stream
// an older build wrote with other values there loads through both readers,
// predicts exactly like the canonical stream, and re-encodes to the
// canonical bytes.
func TestRetiredConfigSlotsIgnored(t *testing.T) {
	dims := []int{40, 30, 20}
	m := syntheticModel(t, 17, dims, []int{3, 2, 2})
	canonical := writeModelV4Lying(t, m, "none", 0)
	if want := encodeModel(t, m); !bytes.Equal(canonical, want) {
		t.Fatal("test bug: the lying encoder's control stream differs from WriteTo")
	}
	data := writeModelV4Lying(t, m, "retired", 0)
	if bytes.Equal(data, canonical) {
		t.Fatal("test bug: retired slots left at their canonical values")
	}

	ref, err := ModelFromMapping(canonical)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := ReadModel(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("heap reader: %v", err)
	}
	mapped, err := ModelFromMapping(data)
	if err != nil {
		t.Fatalf("mapped reader: %v", err)
	}
	rng := rand.New(rand.NewSource(18))
	idx := make([]int, len(dims))
	for i := 0; i < 200; i++ {
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		want := math.Float64bits(ref.Predict(idx))
		if math.Float64bits(heap.Predict(idx)) != want || math.Float64bits(mapped.Predict(idx)) != want {
			t.Fatalf("prediction at %v differs from the canonical stream's", idx)
		}
	}
	for i, back := range []*Model{heap, mapped} {
		var buf bytes.Buffer
		if _, err := back.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), canonical) {
			t.Fatalf("re-encoding the %s-decoded stream did not give the canonical bytes", []string{"heap", "mapped"}[i])
		}
	}
}

// Bit 0 of the core flags is a claim about entry order, not a mappability
// requirement: a v4 stream whose core is out of offset order carries the bit
// clear, and the mapper serves it in place like any other.
func TestModelFromMappingServesUnsortedCore(t *testing.T) {
	dims := []int{20, 16, 12}
	m := syntheticModel(t, 15, dims, []int{3, 2, 2})
	swapFirstTwoEntries(m.Core)
	if m.Core.offsetSorted() {
		t.Fatal("test bug: swapped core is still offset-sorted")
	}
	data := encodeModel(t, m)

	mapped, err := ModelFromMapping(data)
	if err != nil {
		t.Fatalf("v4 stream with the sorted bit clear: %v", err)
	}
	heap, err := ReadModel(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	idx := make([]int, len(dims))
	for i := 0; i < 200; i++ {
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		want := math.Float64bits(m.Predict(idx))
		if math.Float64bits(mapped.Predict(idx)) != want || math.Float64bits(heap.Predict(idx)) != want {
			t.Fatalf("prediction at %v differs between original, mapped and heap models", idx)
		}
	}
}

// model_v4.ptkm pins file compatibility across builds: an earlier build's
// SaveModel wrote it from a P-Tucker-Approx fit with Sparsify of a planted
// 9×8×7 tensor (ranks 3,3,3, 400 entries, noise 0.3, TruncationRate 0.1,
// Sparsify 0.05, 4 iterations, seed 42), its core pruned from 19 entries to
// 12. Both readers must load it, agree bit for bit on every cell, and
// re-encode it to the identical bytes.
func TestModelV4FixtureLoadsAndReencodes(t *testing.T) {
	raw, err := os.ReadFile("testdata/model_v4.ptkm")
	if err != nil {
		t.Fatal(err)
	}
	data := alignedCopy(raw)
	heap, err := ReadModel(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("heap reader: %v", err)
	}
	mapped, err := ModelFromMapping(data)
	if err != nil {
		t.Fatalf("mapped reader: %v", err)
	}
	if heap.Config.Sparsify == 0 || heap.Core.NNZ() >= heap.FinalCoreNNZ {
		t.Fatalf("fixture is not a sparsified model: Sparsify %v, |G| %d of %d",
			heap.Config.Sparsify, heap.Core.NNZ(), heap.FinalCoreNNZ)
	}

	dims := make([]int, heap.Order())
	for k, a := range heap.Factors {
		dims[k] = a.Rows()
	}
	idx := make([]int, len(dims))
	cells := 0
	for {
		a, b := heap.Predict(idx), mapped.Predict(idx)
		if math.Float64bits(a) != math.Float64bits(b) || math.IsNaN(a) || math.IsInf(a, 0) {
			t.Fatalf("cell %v: heap %v vs mapped %v", idx, a, b)
		}
		cells++
		k := 0
		for ; k < len(idx); k++ {
			if idx[k]++; idx[k] < dims[k] {
				break
			}
			idx[k] = 0
		}
		if k == len(idx) {
			break
		}
	}
	if cells != 9*8*7 {
		t.Fatalf("visited %d cells want %d", cells, 9*8*7)
	}

	for i, m := range []*Model{heap, mapped} {
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Fatalf("re-encoding the %s-decoded fixture changed its bytes", []string{"heap", "mapped"}[i])
		}
	}
}

// Flipping a metadata byte must trip the footer's metadata CRC even though
// the mapper never hashes the bulk blocks.
func TestModelFromMappingDetectsMetadataCorruption(t *testing.T) {
	m := syntheticModel(t, 13, []int{30, 20, 10}, []int{2, 2, 2})
	data := encodeModel(t, m)
	flipped := alignedCopy(data)
	flipped[9] ^= 0x01 // inside the config block
	if _, err := ModelFromMapping(flipped); err == nil {
		t.Fatal("metadata corruption went undetected")
	}
}

// The mapper's open cost must not scale with factor bytes: its allocation
// count is identical for a small and a 64x-larger model. This is the
// allocation face of the BenchmarkMmapModelOpen acceptance criterion, stable
// enough to pin.
func TestModelFromMappingAllocsIndependentOfSize(t *testing.T) {
	small := encodeModel(t, syntheticModel(t, 14, []int{128, 16, 12}, []int{3, 2, 2}))
	large := encodeModel(t, syntheticModel(t, 14, []int{8192, 1024, 12}, []int{3, 2, 2}))

	mapOpens := func(data []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := ModelFromMapping(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, l := mapOpens(small), mapOpens(large); s != l {
		t.Fatalf("mapped open allocations scale with size: %v (small) vs %v (large)", s, l)
	}
}

// within reports whether every element of xs lies inside buf.
func within[T any](buf []byte, xs []T) bool {
	if len(xs) == 0 {
		return true
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(xs)))
	return p >= lo && p+uintptr(len(xs))*unsafe.Sizeof(xs[0]) <= lo+uintptr(len(buf))
}

// blocksWithin reports whether m's factor data, core indices and core
// values all lie inside buf (aliased), or all outside it (copied).
func blocksWithin(m *Model, buf []byte) (all, none bool) {
	all, none = true, true
	check := func(in bool) {
		all = all && in
		none = none && !in
	}
	for _, a := range m.Factors {
		check(within(buf, a.Data()))
	}
	check(within(buf, m.Core.idx))
	check(within(buf, m.Core.val))
	return all, none
}

// A heap-decoded v4 model points into its own read buffer instead of
// decoding every element, so LoadModel's allocation count does not grow
// with the file: one read buffer sized from the file, then metadata-sized
// allocations only.
func TestHeapDecodeAliasesReadBuffer(t *testing.T) {
	m := syntheticModel(t, 19, []int{600, 50, 40}, []int{4, 3, 2})
	data := encodeModel(t, m)
	heap, err := decodeModel(data, false)
	if err != nil {
		t.Fatal(err)
	}
	if all, _ := blocksWithin(heap, data); !all {
		t.Fatal("heap-decoded v4 blocks do not alias the read buffer")
	}

	dir := t.TempDir()
	small := filepath.Join(dir, "small.ptkm")
	large := filepath.Join(dir, "large.ptkm")
	if err := SaveModel(small, syntheticModel(t, 14, []int{128, 16, 12}, []int{3, 2, 2})); err != nil {
		t.Fatal(err)
	}
	if err := SaveModel(large, syntheticModel(t, 14, []int{8192, 1024, 12}, []int{3, 2, 2})); err != nil {
		t.Fatal(err)
	}
	loads := func(path string) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := LoadModel(path); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, l := loads(small), loads(large); s != l {
		t.Fatalf("heap load allocations scale with size: %v (small) vs %v (large)", s, l)
	}
}

// A v4 stream held at a misaligned address takes the decoder's copy branch
// (the one a big-endian host takes for every block) and must decode to the
// same model as the aliased branch: bit-identical predictions and bytes.
func TestHeapDecodeMisalignedBufferCopies(t *testing.T) {
	dims := []int{600, 50, 40}
	m := syntheticModel(t, 20, dims, []int{4, 3, 2})
	data := encodeModel(t, m)
	shifted := alignedCopy(append(make([]byte, 1), data...))[1:]
	if uintptr(unsafe.Pointer(&shifted[0]))&7 == 0 {
		t.Fatal("test bug: shifted buffer still aligned")
	}
	copied, err := decodeModel(shifted, false)
	if err != nil {
		t.Fatalf("misaligned heap decode: %v", err)
	}
	if _, none := blocksWithin(copied, shifted); !none {
		t.Fatal("misaligned blocks were aliased, not copied")
	}
	aliased, err := decodeModel(data, false)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(21))
	idx := make([]int, len(dims))
	for i := 0; i < 500; i++ {
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		if math.Float64bits(copied.Predict(idx)) != math.Float64bits(aliased.Predict(idx)) {
			t.Fatalf("copied and aliased decodes predict differently at %v", idx)
		}
	}
	var a, c bytes.Buffer
	if _, err := aliased.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := copied.WriteTo(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("copied and aliased decodes re-encode differently")
	}
}

// A host whose words are not little-endian 64-bit (big-endian) cannot alias
// the blocks: ModelFromMapping must refuse with ErrNotMappable, which sends
// store.OpenModel to the heap loader, and the heap decode must copy. This
// test emulates the host's decision only; the byte order here stays little.
func TestForeignHostWordsRefuseMappingAndCopy(t *testing.T) {
	defer func(v bool) { wordsAliasable = v }(wordsAliasable)
	wordsAliasable = false

	m := syntheticModel(t, 22, []int{30, 20, 10}, []int{2, 2, 2})
	data := encodeModel(t, m)
	if _, err := ModelFromMapping(data); !errorIs(err, ErrNotMappable) {
		t.Fatalf("err = %v, want ErrNotMappable", err)
	}
	heap, err := decodeModel(data, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, none := blocksWithin(heap, data); !none {
		t.Fatal("blocks were aliased on a host that cannot alias them")
	}
	idx := []int{29, 19, 9}
	if math.Float64bits(heap.Predict(idx)) != math.Float64bits(m.Predict(idx)) {
		t.Fatal("copied decode predicts differently from the original")
	}
}

// The heap readers read to EOF, so a v4 stream must end with its footer: a
// missing footer, or bytes after "PTKX", is rejected rather than ignored.
func TestReadModelRequiresFooterAtEnd(t *testing.T) {
	data := encodeModel(t, syntheticModel(t, 23, []int{20, 16, 12}, []int{2, 2, 2}))
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"no footer", data[:len(data)-footerSize]},
		{"trailing byte", append(append([]byte(nil), data...), 0)},
		{"two streams", append(append([]byte(nil), data...), data...)},
	} {
		if _, err := ReadModel(bytes.NewReader(tc.b)); err == nil {
			t.Fatalf("%s: stream accepted", tc.name)
		}
	}
}

// TestDecodeRejectsUnknownVariants: a stream whose config names no known
// Method or Scheduling fails at load, naming the field, instead of loading
// and later refitting as plain P-Tucker under dynamic scheduling.
func TestDecodeRejectsUnknownVariants(t *testing.T) {
	for _, tc := range []struct {
		field string
		mut   func(*Config)
	}{
		{"method", func(c *Config) { c.Method = 7 }},
		{"scheduling", func(c *Config) { c.Scheduling = 9 }},
	} {
		m := syntheticModel(t, 3, []int{6, 5, 4}, []int{2, 2, 2})
		tc.mut(&m.Config)
		data := encodeModel(t, m)
		_, err := ReadModel(bytes.NewReader(data))
		if !errorIs(err, ErrBadModelFormat) || !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("ReadModel with unknown %s: err = %v, want ErrBadModelFormat naming it", tc.field, err)
		}
		_, err = ModelFromMapping(alignedCopy(data))
		if !errorIs(err, ErrBadModelFormat) || !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("ModelFromMapping with unknown %s: err = %v, want ErrBadModelFormat naming it", tc.field, err)
		}
	}
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/store"
	"repro/internal/tensor"
)

// genVersion names the generators' output format. Bump it whenever a
// generator changes what it writes, so inputs cached by an older generator
// are never reused.
const genVersion = 2

// Input shapes. They are fixed so every seed produces inputs of identical
// size and structure; the seed moves only which coordinates and values are
// drawn, which keeps the measured work the same across seeds.
var (
	plainDims    = []int{1200, 1200, 1200}
	plainNNZ     = 300_000
	plainPlanted = []int{5, 5, 5}
	plainRanks   = []int{5, 5, 5}
	plainNoise   = 0.1

	// (user, item, year, hour), as the MovieLens-style tensors of Table IV.
	skewDims    = []int{20_000, 8_000, 16, 24}
	skewNNZ     = 200_000
	skewPlanted = []int{3, 3, 2, 2}
	skewRanks   = []int{6, 6, 2, 2}
	skewNoise   = 0.1
	skewZipfS   = 1.1 // power law of user and item popularity: P(rank k) ∝ (k+v)^-s
	skewZipfV   = 10.0
)

// Fit settings shared by the fit workloads, the served model and the
// in-process replay (paper defaults: λ = 0.01, p = 0.2, threads = nproc).
const (
	fitLambda   = 0.01
	fitTrunc    = 0.2
	fitMaxIters = 40
	trainFrac   = 0.9
)

// The planted model and the fit's initialization are drawn from these fixed
// seeds rather than from --seed. P-Tucker keeps its random initial core
// fixed until finalize, so the core it starts from decides how fast a fit
// converges; fixing both keeps the error curves of different seeds alike,
// which is what lets one target stop every seed at the same iteration.
const (
	plantedSeed = 1
	fitSeed     = 1
)

// Train relative-error targets (‖X − X̂‖/‖X‖ over the training entries) at
// which the OnIteration hook stops a fit. Each sits on the one steep step of
// its error curve, between iterations 1 and 2, so every seed stops after the
// same number of iterations; further along the curves flatten, and the
// iteration a fixed target is crossed varies by seed.
const (
	plainTarget = 0.135
	skewTarget  = 0.2
)

// workloadSpec describes one fit input: how to generate it and how to fit it.
type workloadSpec struct {
	name     string
	file     string // text tensor in the cache dir
	order    int
	dims     []int // the input's shape: rows no entry touches still exist
	ranks    []int
	method   core.Method
	target   float64
	seenOnly bool // drop test entries whose rows training never saw
}

var (
	plainSpec = workloadSpec{name: "fit-plain", file: "plain.tns", order: 3, dims: plainDims, ranks: plainRanks,
		method: core.PTucker, target: plainTarget}
	skewSpec = workloadSpec{name: "fit-approx-skewed", file: "skewed.tns", order: 4, dims: skewDims, ranks: skewRanks,
		method: core.PTuckerApprox, target: skewTarget, seenOnly: true}
)

// fitConfig is the configuration every fit of spec uses.
func (spec workloadSpec) fitConfig(threads int) core.Config {
	cfg := core.Defaults(spec.ranks)
	cfg.Lambda = fitLambda
	cfg.MaxIters = fitMaxIters
	cfg.Tol = 0 // only the target hook or the iteration cap stops a fit
	cfg.Threads = threads
	cfg.Method = spec.method
	cfg.TruncationRate = fitTrunc
	cfg.Seed = fitSeed
	return cfg
}

// plantedTucker is a dense Tucker model. It is drawn from plantedSeed, not
// from --seed: every seed samples cells, noise and splits from the same
// planted population, so the fit quality, and with it test_rmse, compares
// across seeds. draw gives the factor entries.
type plantedTucker struct {
	factors []*mat.Dense
	core    *tensor.Dense
	beta    []int
}

func newPlanted(dims, ranks []int, draw func(*rand.Rand) float64) *plantedTucker {
	rng := rand.New(rand.NewSource(plantedSeed))
	p := &plantedTucker{factors: make([]*mat.Dense, len(dims)), core: tensor.NewDenseTensor(ranks), beta: make([]int, len(dims))}
	for k := range dims {
		a := mat.NewDense(dims[k], ranks[k])
		for i := range a.Data() {
			a.Data()[i] = draw(rng)
		}
		p.factors[k] = a
	}
	for i := range p.core.Data() {
		p.core.Data()[i] = rng.Float64()
	}
	return p
}

// value evaluates the model at idx.
func (p *plantedTucker) value(idx []int) float64 {
	var v float64
	for off, g := range p.core.Data() {
		p.core.IndexOf(off, p.beta)
		for k, f := range p.factors {
			g *= f.At(idx[k], p.beta[k])
		}
		v += g
	}
	return v
}

// addNoise scales x's values to unit root mean square and adds Gaussian
// noise of standard deviation sigma, so every seed has the same
// signal-to-noise ratio.
func addNoise(rng *rand.Rand, x *tensor.Coord, sigma float64) {
	var ss float64
	for _, v := range x.Values() {
		ss += v * v
	}
	scale := 1 / math.Sqrt(ss/float64(x.NNZ()))
	for e := 0; e < x.NNZ(); e++ {
		x.SetValue(e, x.Value(e)*scale+sigma*rng.NormFloat64())
	}
}

// cellKey packs a coordinate into one map key; every mode here is below
// 2^16 rows.
func cellKey(idx []int) uint64 {
	var k uint64
	for _, c := range idx {
		k = k<<16 | uint64(c)
	}
	return k
}

// genPlain returns the fit-plain input: plainNNZ distinct cells drawn
// uniformly from a 3-order planted rank-5 Tucker tensor, plus noise.
func genPlain(seed int64) *tensor.Coord {
	rng := rand.New(rand.NewSource(seed))
	p := newPlanted(plainDims, plainPlanted, func(r *rand.Rand) float64 { return 1 + r.NormFloat64() })
	x := tensor.NewCoord(plainDims)
	seen := make(map[uint64]struct{}, plainNNZ)
	idx := make([]int, len(plainDims))
	for x.NNZ() < plainNNZ {
		for k, d := range plainDims {
			idx[k] = rng.Intn(d)
		}
		key := cellKey(idx)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		x.MustAppend(idx, p.value(idx))
	}
	addNoise(rng, x, plainNoise)
	return x
}

// powerLaw draws row ids in [0, n) whose popularity follows a Zipf law over
// a ranking: perm[k] is the row of popularity rank k.
type powerLaw struct {
	z    *rand.Zipf
	perm []int
}

func newPowerLaw(rng *rand.Rand, perm []int) *powerLaw {
	return &powerLaw{z: rand.NewZipf(rng, skewZipfS, skewZipfV, uint64(len(perm)-1)), perm: perm}
}

func (p *powerLaw) next() int { return p.perm[p.z.Uint64()] }

// popularity ranks the rows of a power-law mode: hot rows are scattered
// over the id space, as in real data. Like the planted model it is fixed, so
// the same rows are hot for every seed, and the data, the backlog and the
// request stream all rank rows the same way.
func popularity(mode int) []int {
	return rand.New(rand.NewSource(plantedSeed*8 + int64(mode))).Perm(skewDims[mode])
}

// genSkewed returns the fit-approx-skewed input: skewNNZ distinct
// (user, item, year, hour) cells whose users and items follow a power law
// (hot rows hold thousands of entries, the tail one or two), valued by a
// planted Tucker model plus noise, and normalized to [0,1] as the paper does
// for its real-world tensors.
func genSkewed(seed int64) *tensor.Coord {
	rng := rand.New(rand.NewSource(seed))
	p := newPlanted(skewDims, skewPlanted, func(r *rand.Rand) float64 { return 0.5 + r.Float64() })
	users := newPowerLaw(rng, popularity(0))
	items := newPowerLaw(rng, popularity(1))
	x := tensor.NewCoord(skewDims)
	seen := make(map[uint64]struct{}, skewNNZ)
	idx := make([]int, 4)
	for x.NNZ() < skewNNZ {
		idx[0], idx[1] = users.next(), items.next()
		idx[2], idx[3] = rng.Intn(skewDims[2]), rng.Intn(skewDims[3])
		key := cellKey(idx)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		x.MustAppend(idx, p.value(idx))
	}
	addNoise(rng, x, skewNoise)
	x.Normalize()
	return x
}

// splitInput splits x 90/10 into train and test with a seeded shuffle. With
// seenOnly, test entries on a row that has no training entry are dropped:
// a model cannot be scored on rows it never saw.
func splitInput(x *tensor.Coord, seed int64, seenOnly bool) (train, test *tensor.Coord) {
	train, test = x.Split(trainFrac, rand.New(rand.NewSource(seed)))
	if !seenOnly {
		return train, test
	}
	seen := make([][]bool, train.Order())
	for k := range seen {
		seen[k] = make([]bool, train.Dim(k))
	}
	for e := 0; e < train.NNZ(); e++ {
		for k, c := range train.Index(e) {
			seen[k][c] = true
		}
	}
	kept := tensor.NewCoord(test.Dims())
next:
	for e := 0; e < test.NNZ(); e++ {
		idx := test.Index(e)
		for k, c := range idx {
			if !seen[k][c] {
				continue next
			}
		}
		kept.MustAppend(idx, test.Value(e))
	}
	return train, kept
}

// inputStats is what the benchmark prints about each generated input.
type inputStats struct {
	Dims       []int `json:"dims"`
	NNZ        int   `json:"nnz"`
	MaxRowLoad []int `json:"max_row_load"`
}

func statsOf(x *tensor.Coord) inputStats {
	mi := tensor.NewModeIndex(x)
	loads := make([]int, x.Order())
	for k := range loads {
		loads[k] = mi.MaxRowLoad(k)
	}
	return inputStats{Dims: append([]int(nil), x.Dims()...), NNZ: x.NNZ(), MaxRowLoad: loads}
}

// inputCache is the read-only, per-seed cache of generated inputs under
// <root>/v<genVersion>/seed-<seed>. Each file is written to a temporary name
// and renamed into place, so an interrupted run never leaves a partial input
// behind.
type inputCache struct {
	dir  string
	seed int64
}

func openCache(root string, seed int64) (*inputCache, error) {
	dir := filepath.Join(root, "v"+strconv.Itoa(genVersion), "seed-"+strconv.FormatInt(seed, 10))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &inputCache{dir: dir, seed: seed}, nil
}

func (c *inputCache) path(name string) string { return filepath.Join(c.dir, name) }

// ensure creates the named file with fill unless it is already cached.
func (c *inputCache) ensure(name string, fill func(path string) error) (string, error) {
	p := c.path(name)
	if _, err := os.Stat(p); err == nil {
		return p, nil
	}
	return p, publish(p, fill)
}

// publish has fill write a temporary file, makes it read-only and renames
// it to path.
func publish(path string, fill func(tmp string) error) error {
	tmp := path + ".tmp"
	os.Remove(tmp)
	if err := fill(tmp); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("generate %s: %w", filepath.Base(path), err)
	}
	if err := os.Chmod(tmp, 0o444); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// tensorFile returns the cached text input of spec, generating it and its
// stats sidecar on first use.
func (c *inputCache) tensorFile(spec workloadSpec) (string, error) {
	return c.ensure(spec.file, func(path string) error {
		var x *tensor.Coord
		if spec.order == 3 {
			x = genPlain(c.seed)
		} else {
			x = genSkewed(c.seed)
		}
		b, err := json.Marshal(statsOf(x))
		if err != nil {
			return err
		}
		if err := publish(c.path(spec.file+".stats.json"), func(tmp string) error {
			return os.WriteFile(tmp, b, 0o644)
		}); err != nil {
			return err
		}
		return tensor.WriteFile(path, x)
	})
}

// stats returns the cached stats of spec's input.
func (c *inputCache) stats(spec workloadSpec) (inputStats, error) {
	var st inputStats
	b, err := os.ReadFile(c.path(spec.file + ".stats.json"))
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}

// servedModel returns the cached model serve-mixed serves: the P-Tucker-Approx
// fit of the fit-approx-skewed training split, stopped at the same target.
func (c *inputCache) servedModel() (string, error) {
	in, err := c.tensorFile(skewSpec)
	if err != nil {
		return "", err
	}
	return c.ensure("served.ptkm", func(path string) error {
		x, err := tensor.ReadFile(in, skewSpec.order, skewSpec.dims)
		if err != nil {
			return err
		}
		train, _ := splitInput(x, c.seed, true)
		cfg := skewSpec.fitConfig(0)
		norm := train.Norm()
		cfg.OnIteration = func(st core.IterStats) error {
			if st.Error/norm <= skewSpec.target {
				return core.ErrStopIteration
			}
			return nil
		}
		m, err := core.DecomposeContext(context.Background(), train, cfg)
		if err != nil {
			return err
		}
		return core.SaveModel(path, m)
	})
}

// backlogFile returns the cached journal backlog serve-mixed replays at
// start-up: the first backlogRecords batches of the seed's observe stream.
func (c *inputCache) backlogFile(batches []obsBatch) (string, error) {
	return c.ensure("backlog.ptkj", func(path string) error {
		j, err := store.CreateJournal(path, len(skewDims), 0, store.SyncPolicy{Mode: store.SyncNone})
		if err != nil {
			return err
		}
		for _, b := range batches {
			if _, err := j.Append(b.obs); err != nil {
				j.Close()
				return err
			}
		}
		if err := j.Sync(); err != nil {
			j.Close()
			return err
		}
		return j.Close()
	})
}

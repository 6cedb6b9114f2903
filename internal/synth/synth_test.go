package synth

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestUniformShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := Uniform(rng, []int{20, 30, 40}, 500)
	if x.NNZ() != 500 {
		t.Fatalf("NNZ = %d want 500", x.NNZ())
	}
	if x.Order() != 3 {
		t.Fatalf("order = %d want 3", x.Order())
	}
	for _, v := range x.Values() {
		if v < 0 || v >= 1 {
			t.Fatalf("value %v outside [0,1)", v)
		}
	}
	// All coordinates must be distinct.
	seen := make(map[[3]int]bool)
	for e := 0; e < x.NNZ(); e++ {
		var k [3]int
		copy(k[:], x.Index(e))
		if seen[k] {
			t.Fatalf("duplicate coordinate %v", k)
		}
		seen[k] = true
	}
}

func TestUniformRejectsOverfull(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when nnz exceeds cells")
		}
	}()
	Uniform(rand.New(rand.NewSource(2)), []int{2, 2}, 5)
}

func TestUniformDeterministic(t *testing.T) {
	a := Uniform(rand.New(rand.NewSource(3)), []int{10, 10}, 50)
	b := Uniform(rand.New(rand.NewSource(3)), []int{10, 10}, 50)
	if a.NNZ() != b.NNZ() {
		t.Fatal("same seed must give same tensor")
	}
	for e := 0; e < a.NNZ(); e++ {
		if a.Value(e) != b.Value(e) {
			t.Fatal("same seed must give same values")
		}
	}
}

// A planted low-rank tensor must be recoverable by a rank-matched P-Tucker
// run to far better accuracy than its own noise floor would suggest for a
// random tensor.
func TestPlantedTuckerIsLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := PlantedTucker(rng, []int{15, 15, 15}, []int{2, 2, 2}, 600, 0.01)
	cfg := core.Defaults([]int{2, 2, 2})
	cfg.MaxIters = 10
	cfg.Threads = 2
	m, err := core.DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fit := m.Fit(x); fit < 0.9 {
		t.Fatalf("planted tensor should be fittable: fit = %v", fit)
	}
}

func TestSmoothLowRankRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := SmoothLowRank(rng, []int{40, 40, 3}, 3, 0.1)
	want := int(0.1 * 40 * 40 * 3)
	if x.NNZ() != want {
		t.Fatalf("NNZ = %d want %d", x.NNZ(), want)
	}
	for _, v := range x.Values() {
		if v < 0 || v > 1 {
			t.Fatalf("value %v outside [0,1]", v)
		}
	}
}

func TestMovieLensStructure(t *testing.T) {
	cfg := DefaultMovieLensConfig()
	cfg.Users, cfg.Movies, cfg.NNZ = 100, 60, 3000
	d := MovieLens(cfg)
	if d.X.NNZ() != 3000 {
		t.Fatalf("NNZ = %d want 3000", d.X.NNZ())
	}
	if got := d.X.Dims(); got[0] != 100 || got[1] != 60 || got[2] != 21 || got[3] != 24 {
		t.Fatalf("dims = %v", got)
	}
	if len(d.MovieGenre) != 60 || len(d.UserPref) != 100 {
		t.Fatal("ground-truth labels missing")
	}
	for _, g := range d.MovieGenre {
		if g < 0 || g >= cfg.Genres {
			t.Fatalf("movie genre %d out of range", g)
		}
	}
	if len(d.Relations) != cfg.Genres {
		t.Fatalf("planted %d relations want %d", len(d.Relations), cfg.Genres)
	}
	for _, rel := range d.Relations {
		if len(rel.PeakYears) == 0 || len(rel.PeakHours) == 0 {
			t.Fatal("relation without peaks")
		}
	}
	for _, v := range d.X.Values() {
		if v < 0 || v > 1 {
			t.Fatalf("rating %v outside [0,1]", v)
		}
	}
}

func TestMovieLensGenreSignal(t *testing.T) {
	// Ratings of preferred-genre pairs must be higher on average than
	// cross-genre ratings — the signal concept discovery depends on.
	cfg := DefaultMovieLensConfig()
	cfg.Users, cfg.Movies, cfg.NNZ, cfg.Noise = 80, 48, 4000, 0.0
	d := MovieLens(cfg)
	var prefSum, crossSum float64
	var prefN, crossN int
	for e := 0; e < d.X.NNZ(); e++ {
		idx := d.X.Index(e)
		u, m := idx[0], idx[1]
		if d.UserPref[u] == d.MovieGenre[m] {
			prefSum += d.X.Value(e)
			prefN++
		} else {
			crossSum += d.X.Value(e)
			crossN++
		}
	}
	if prefN == 0 || crossN == 0 {
		t.Fatal("both rating populations must be present")
	}
	if prefSum/float64(prefN) <= crossSum/float64(crossN) {
		t.Fatalf("no genre signal: pref mean %v <= cross mean %v",
			prefSum/float64(prefN), crossSum/float64(crossN))
	}
}

func TestMovieLensBadGenres(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad genre count")
		}
	}()
	cfg := DefaultMovieLensConfig()
	cfg.Genres = 99
	MovieLens(cfg)
}

func TestParseScale(t *testing.T) {
	if s, err := ParseScale(""); err != nil || s != ScaleSmall {
		t.Fatal("empty scale must default to small")
	}
	if s, err := ParseScale("full"); err != nil || s != ScaleFull {
		t.Fatal("full scale must parse")
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("unknown scale must error")
	}
}

func TestDatasetsRegistry(t *testing.T) {
	ds := Datasets(ScaleSmall, 7)
	if len(ds) != 4 {
		t.Fatalf("registry has %d datasets want 4", len(ds))
	}
	wantOrders := []int{4, 4, 4, 3}
	for i, d := range ds {
		if d.X.Order() != wantOrders[i] {
			t.Fatalf("%s: order %d want %d", d.Name, d.X.Order(), wantOrders[i])
		}
		if d.X.NNZ() == 0 {
			t.Fatalf("%s: empty", d.Name)
		}
		if len(d.Ranks) != d.X.Order() {
			t.Fatalf("%s: %d ranks for order %d", d.Name, len(d.Ranks), d.X.Order())
		}
		if d.X.MinValue() < 0 || d.X.MaxValue() > 1 {
			t.Fatalf("%s: values outside [0,1]", d.Name)
		}
	}
}

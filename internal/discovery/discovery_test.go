package discovery

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// movieModel factorizes a small planted MovieLens-like tensor once for all
// discovery tests.
func movieModel(t *testing.T) (*core.Model, *synth.MovieLensData) {
	t.Helper()
	cfg := synth.DefaultMovieLensConfig()
	cfg.Users, cfg.Movies, cfg.NNZ, cfg.Genres = 150, 90, 8000, 3
	d := synth.MovieLens(cfg)
	c := core.Defaults([]int{3, 3, 3, 3})
	c.MaxIters = 8
	c.Threads = 2
	c.Seed = 5
	m, err := core.DecomposeContext(context.Background(), d.X, c)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

func TestConceptsPartitionMode(t *testing.T) {
	m, d := movieModel(t)
	rng := rand.New(rand.NewSource(1))
	concepts, err := Concepts(m, 1, 3, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(concepts) != 3 {
		t.Fatalf("%d concepts want 3", len(concepts))
	}
	seen := make(map[int]bool)
	total := 0
	for _, c := range concepts {
		for _, member := range c.Members {
			if seen[member] {
				t.Fatalf("movie %d in two concepts", member)
			}
			seen[member] = true
			total++
		}
	}
	if total != len(d.MovieGenre) {
		t.Fatalf("concepts cover %d movies want %d", total, len(d.MovieGenre))
	}
}

func TestConceptsTopPerConcept(t *testing.T) {
	m, _ := movieModel(t)
	rng := rand.New(rand.NewSource(2))
	concepts, err := Concepts(m, 1, 3, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range concepts {
		if len(c.Members) > 5 {
			t.Fatalf("concept %d has %d members, cap is 5", c.Cluster, len(c.Members))
		}
	}
}

// Table V's quantitative analog: clustering the movie factor must recover the
// planted genres far better than chance (purity 1/3 for 3 balanced genres).
func TestConceptPurityRecoversGenres(t *testing.T) {
	m, d := movieModel(t)
	rng := rand.New(rand.NewSource(3))
	p, err := ConceptPurity(m, 1, 3, d.MovieGenre, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.6 {
		t.Fatalf("genre purity = %v, want well above the 0.33 chance level", p)
	}
}

func TestRelationsShape(t *testing.T) {
	m, _ := movieModel(t)
	rels := Relations(m, 3, 4)
	if len(rels) != 3 {
		t.Fatalf("%d relations want 3", len(rels))
	}
	for i, r := range rels {
		if len(r.CoreIndex) != 4 {
			t.Fatalf("relation %d core index order %d want 4", i, len(r.CoreIndex))
		}
		if len(r.TopIndices) != 4 {
			t.Fatalf("relation %d has %d mode lists want 4", i, len(r.TopIndices))
		}
		for n, tops := range r.TopIndices {
			if len(tops) != 4 {
				t.Fatalf("relation %d mode %d has %d top indices want 4", i, n, len(tops))
			}
		}
		// Relations are ordered by descending strength.
		if i > 0 && abs(rels[i].Value) > abs(rels[i-1].Value)+1e-12 {
			t.Fatal("relations not ordered by |G| descending")
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestOverlapScore(t *testing.T) {
	if s := OverlapScore([]int{1, 2, 3}, []int{2, 3, 4}); s < 0.66 || s > 0.67 {
		t.Fatalf("overlap = %v want 2/3", s)
	}
	if s := OverlapScore([]int{1}, []int{1, 2, 3}); s != 1 {
		t.Fatalf("subset overlap = %v want 1", s)
	}
	if s := OverlapScore(nil, []int{1}); s != 0 {
		t.Fatal("empty discovered must score 0")
	}
}

func TestRelationDescribe(t *testing.T) {
	r := Relation{CoreIndex: []int{1, 2}, Value: 3.5, TopIndices: [][]int{{4}, {5}}}
	s := r.Describe([]string{"year", "hour"})
	if !strings.Contains(s, "year[4]") || !strings.Contains(s, "hour[5]") {
		t.Fatalf("Describe = %q", s)
	}
	// Missing names fall back to modeN.
	s = r.Describe(nil)
	if !strings.Contains(s, "mode1[4]") {
		t.Fatalf("Describe fallback = %q", s)
	}
}

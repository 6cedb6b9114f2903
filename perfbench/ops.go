package main

import (
	"math/rand"
	"time"

	"repro/internal/core"
)

// The request mix: every cycle of ten ops holds seven predicts, one
// predict-batch, one recommend and one observe, in a seeded order, and every
// tenth observe folds in a brand-new user. Fixed counts per cycle make every
// seed do the same amount of each kind of work.
const (
	batchSize  = 16 // indexes per predict-batch
	recK       = 10 // top-K of a recommend
	recExclude = 5  // items a recommend excludes
	appendObs  = 4  // observations of an append-only observe
	foldObs    = 8  // observations folding in one new user
	foldEvery  = 10 // one observe in foldEvery is a fold-in
	recMode    = 1  // recommend ranks items (mode 1)
	foldMode   = 0  // fold-ins add users (mode 0)
)

type opKind int

const (
	opPredict opKind = iota
	opBatch
	opRecommend
	opObserve // append-only observe on existing rows
	opFoldIn  // observe that folds in a new user
	numOpKinds
)

// endpoint is the HTTP endpoint an op kind goes to.
func (k opKind) endpoint() string {
	switch k {
	case opBatch:
		return "predict-batch"
	case opRecommend:
		return "recommend"
	case opObserve, opFoldIn:
		return "observe"
	}
	return "predict"
}

// op is one request of the sequence.
type op struct {
	kind    opKind
	index   []int              // predict
	indexes [][]int            // predict-batch
	query   []int              // recommend (mode recMode is ignored)
	exclude []int              // recommend
	obs     []core.Observation // observe / fold-in
}

// opGen draws the seeded op sequence over a model of the given dims. Reads
// and append-only observes address only rows that exist when serving
// starts; fold-ins add users past them in order.
type opGen struct {
	rng      *rand.Rand
	pick     []func() int // per-mode row sampler over the starting dims
	nextUser int          // next brand-new user id
	cycle    []opKind
	observes int
}

// newOpGen returns a generator over dims whose user and item rows are drawn
// by users and items (nil draws uniformly) and whose other modes are uniform.
func newOpGen(rng *rand.Rand, dims []int, users, items func() int) *opGen {
	g := &opGen{rng: rng, pick: make([]func() int, len(dims)), nextUser: dims[foldMode]}
	for k, d := range dims {
		d := d
		g.pick[k] = func() int { return rng.Intn(d) }
	}
	if users != nil {
		g.pick[0] = users
	}
	if items != nil {
		g.pick[1] = items
	}
	return g
}

func (g *opGen) index() []int {
	idx := make([]int, len(g.pick))
	for k, p := range g.pick {
		idx[k] = p()
	}
	return idx
}

func (g *opGen) observations(n int, user int) []core.Observation {
	obs := make([]core.Observation, n)
	for i := range obs {
		idx := g.index()
		if user >= 0 {
			idx[foldMode] = user
		}
		obs[i] = core.Observation{Index: idx, Value: g.rng.Float64()}
	}
	return obs
}

// observe draws the next observe op: an append, or every foldEvery-th one a
// fold-in of the next new user.
func (g *opGen) observe() op {
	g.observes++
	if g.observes%foldEvery == 0 {
		u := g.nextUser
		g.nextUser++
		return op{kind: opFoldIn, obs: g.observations(foldObs, u)}
	}
	return op{kind: opObserve, obs: g.observations(appendObs, -1)}
}

func (g *opGen) next() op {
	if len(g.cycle) == 0 {
		g.cycle = []opKind{opPredict, opPredict, opPredict, opPredict, opPredict, opPredict, opPredict, opBatch, opRecommend, opObserve}
		g.rng.Shuffle(len(g.cycle), func(i, j int) { g.cycle[i], g.cycle[j] = g.cycle[j], g.cycle[i] })
	}
	k := g.cycle[0]
	g.cycle = g.cycle[1:]
	switch k {
	case opBatch:
		idxs := make([][]int, batchSize)
		for i := range idxs {
			idxs[i] = g.index()
		}
		return op{kind: opBatch, indexes: idxs}
	case opRecommend:
		ex := make([]int, recExclude)
		for i := range ex {
			ex[i] = g.pick[recMode]()
		}
		return op{kind: opRecommend, query: g.index(), exclude: ex}
	case opObserve:
		return g.observe()
	}
	return op{kind: opPredict, index: g.index()}
}

// libServe is the in-process serving pass a fit child runs on the model it
// fitted: the same op mix as serve-mixed through the library API, with no
// HTTP, JSON, coalescer or journal in between.
type libServe struct {
	Seconds float64               `json:"seconds"`
	Lat     [numOpKinds][]float64 `json:"lat_s"` // per-op latency, seconds
	Ops     int                   `json:"ops"`
	FoldS   []float64             `json:"fold_s"`     // Fitter.FoldIn alone
	SnapS   []float64             `json:"snapshot_s"` // Fitter.Snapshot alone
}

// observeBlock is how many append-only observes the in-process pass times
// together: one Fitter.Observe call takes about as long as reading the
// clock twice, so single calls would mostly time the clock.
const observeBlock = 16

// runLibServe replays n ops of the seeded mix against m in process. Like
// the server, a fold-in solves the new row, snapshots the grown model and
// publishes a predictor over the snapshot. Append-only observes change
// nothing a read sees, so they are deferred and timed in blocks of
// observeBlock, each block giving one per-call sample.
func runLibServe(m *core.Model, cfg core.Config, gen *opGen, n int) (*libServe, error) {
	cfg.OnIteration = nil
	f, err := core.ResumeFitter(m, cfg)
	if err != nil {
		return nil, err
	}
	pred := core.NewPredictor(m)
	rec := pred.Recommender()
	ops := make([]op, n)
	for i := range ops {
		ops[i] = gen.next()
	}
	res := &libServe{Ops: n}
	var pending [][]core.Observation
	observe := func() error {
		t0 := time.Now()
		for _, obs := range pending {
			if err := f.Observe(obs); err != nil {
				return err
			}
		}
		res.Lat[opObserve] = append(res.Lat[opObserve], time.Since(t0).Seconds()/float64(len(pending)))
		pending = pending[:0]
		return nil
	}
	start := time.Now()
	for _, o := range ops {
		if o.kind == opObserve {
			if pending = append(pending, o.obs); len(pending) == observeBlock {
				if err := observe(); err != nil {
					return nil, err
				}
			}
			continue
		}
		t0 := time.Now()
		switch o.kind {
		case opPredict:
			sink += pred.Predict(o.index)
		case opBatch:
			sink += pred.PredictBatch(o.indexes)[0]
		case opRecommend:
			recs, err := rec.TopKExcluding(o.query, recMode, recK, o.exclude)
			if err != nil {
				return nil, err
			}
			sink += recs[0].Score
		case opFoldIn:
			if _, err := f.FoldIn(foldMode, o.obs); err != nil {
				return nil, err
			}
			t1 := time.Now()
			snap := f.Snapshot()
			t2 := time.Now()
			pred = core.NewPredictorShared(snap)
			rec = pred.Recommender()
			res.FoldS = append(res.FoldS, t1.Sub(t0).Seconds())
			res.SnapS = append(res.SnapS, t2.Sub(t1).Seconds())
		}
		res.Lat[o.kind] = append(res.Lat[o.kind], time.Since(t0).Seconds())
	}
	if len(pending) > 0 {
		if err := observe(); err != nil {
			return nil, err
		}
	}
	res.Seconds = time.Since(start).Seconds()
	return res, nil
}

// sink keeps the compiler from discarding measured calls.
var sink float64

package serve

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
)

// FuzzObserveDecode drives the /v1/observe decode path: arbitrary bytes are
// parsed as the request JSON and planned against a fixed 3x4x5 model shape.
// A plan that comes back must account for every observation exactly once,
// with fold-ins arriving in contiguous next-slice order per mode — the same
// invariants applyPlan relies on to mutate the fitter without bounds checks
// — and must carry finite values only: a NaN or ±Inf that got this far
// would reach the journal and the fit.
func FuzzObserveDecode(f *testing.F) {
	f.Add([]byte(`{"observations":[{"index":[0,1,2],"value":1.5}]}`))
	f.Add([]byte(`{"observations":[]}`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req observeRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return // not a request: fine
		}
		dims := []int{3, 4, 5}
		plan, err := planObservations(dims, req.Observations)
		if err != nil {
			return // rejected batch: fine
		}
		finite := func(where string, obs []core.Observation) {
			for _, o := range obs {
				if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
					t.Fatalf("plan %s carry non-finite value %v at %v", where, o.Value, o.Index)
				}
			}
		}
		finite("appends", plan.appends)
		placed := len(plan.appends)
		sim := append([]int(nil), dims...)
		for _, g := range plan.folds {
			finite("fold groups", g.obs)
			if g.mode < 0 || g.mode >= len(dims) {
				t.Fatalf("fold group targets mode %d of a %d-mode model", g.mode, len(dims))
			}
			if g.index != sim[g.mode] {
				t.Fatalf("fold group lands at index %d in mode %d; next slice is %d", g.index, g.mode, sim[g.mode])
			}
			if len(g.obs) == 0 {
				t.Fatalf("empty fold group for mode %d index %d", g.mode, g.index)
			}
			sim[g.mode]++
			placed += len(g.obs)
		}
		if placed != len(req.Observations) {
			t.Fatalf("plan places %d of %d observations", placed, len(req.Observations))
		}
	})
}

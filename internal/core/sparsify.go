package core

// sparsifyCore is the post-fit VeST-style pruning pass (Config.Sparsify): it
// ranks live core entries by responsibility and removes the largest prefix of
// low-responsibility entries whose reconstruction error stays within the
// configured relative budget. It runs after the QR finalization, so the
// ranking and the budget are measured on exactly the model that will be
// served.
//
// Responsibility is read off the partial reconstruction errors R(β) (Eq. 13):
// a large R(β) means the entry hurts the fit — the least responsible entries
// for the model's accuracy — so candidates are taken in rankByPartialError's
// order, the same total order truncateCore uses. The budget is checked against
// cfg.SparsifyHoldout when set (generalization-gated pruning), otherwise
// against the training set.
//
// The prune count is found by exponential probing followed by bisection;
// each probe recomputes the true reconstruction error on a pruned clone, so
// the accepted count honestly satisfies the budget rather than relying on
// the scores being additive. The error is not strictly monotone in the
// count — dropping an entry with positive R(β) lowers it — but the probe
// sequence is deterministic, so equal fits prune identically. At least one
// entry always survives.
func (st *state) sparsifyCore(model *Model) {
	g := st.core
	width := g.NNZ()
	if st.cfg.Sparsify <= 0 || width <= 1 {
		return
	}
	scoreSet := st.x
	if st.cfg.SparsifyHoldout != nil {
		scoreSet = st.cfg.SparsifyHoldout
	}
	threads := st.cfg.Threads
	base := reconstructionError(scoreSet, st.factors, g, threads)
	budget := base * (1 + st.cfg.Sparsify)

	order := rankByPartialError(PartialErrors(st))

	errAt := func(k int) float64 {
		drop := make([]bool, width)
		for i := 0; i < k; i++ {
			drop[order[i]] = true
		}
		clone := g.Clone()
		clone.RemoveEntries(drop)
		return reconstructionError(scoreSet, st.factors, clone, threads)
	}

	maxK := width - 1
	best := 0
	lo, hi := 0, -1 // errAt(lo) ≤ budget; hi is the smallest known failure
	for k := 1; ; k *= 2 {
		if k > maxK {
			k = maxK
		}
		if errAt(k) <= budget {
			best, lo = k, k
			if k == maxK {
				break
			}
			continue
		}
		hi = k
		break
	}
	if hi > 0 {
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if errAt(mid) <= budget {
				best, lo = mid, mid
			} else {
				hi = mid
			}
		}
	}
	if best == 0 {
		return
	}

	drop := make([]bool, width)
	for i := 0; i < best; i++ {
		drop[order[i]] = true
	}
	g.RemoveEntries(drop)
	// The served model's training error moved; keep the summary truthful.
	model.TrainError = reconstructionError(st.x, st.factors, g, threads)
}

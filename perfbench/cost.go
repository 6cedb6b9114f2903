package main

// fitCost is the Table III cost model of one fit, in floating-point
// operations (a multiply-add counts two). The counts are computed from the
// fit's shape — |Ω|, I_n, J_n and the |G| each iteration worked with — not
// measured, so they repeat exactly for equal inputs.
type fitCost struct {
	Delta    float64 // δ vectors of the row update (Eq. 12)
	Accum    float64 // B += δδᵀ and c += Xα·δ accumulation (Eqs. 10, 11)
	Solve    float64 // Cholesky solve of [B + λI] per factor row
	Error    float64 // reconstruction error pass (Eq. 5)
	Truncate float64 // partial errors R(β) of P-Tucker-Approx (Eq. 13)
}

// tableIIICost applies the cost model to a fit over omega training entries
// with mode lengths dims and core ranks ranks, whose iterations worked with
// the core sizes in coreNNZ (IterStats.CoreNNZ: |G| during the factor
// updates and the error pass). With truncated set every iteration also
// scores its core for truncation. Per iteration, with N modes and g = |G|:
//
//	delta    = N · |Ω| · g · N           each mode visits every entry once; each core
//	                                     entry costs N−1 multiplies and one add
//	accum    = Σ_n |Ω| · (J_n(J_n+1) + 2J_n)   upper triangle of δδᵀ plus c, as multiply-adds
//	solve    = Σ_n I_n · (J_n³/3 + 2J_n²)      Cholesky factorization plus two triangular solves
//	error    = |Ω| · (g·(N+1) + 3)       each core entry N multiplies and one add;
//	                                     residual, square and sum
//	truncate = |Ω| · g · (N+4)           the same products, their sum, and the
//	                                     R(β) update p·(2(full−x)−p) accumulated
func tableIIICost(omega int, dims, ranks, coreNNZ []int, truncated bool) fitCost {
	var c fitCost
	n := float64(len(dims))
	o := float64(omega)
	for _, nnz := range coreNNZ {
		g := float64(nnz)
		c.Delta += n * o * g * n
		for k := range dims {
			j := float64(ranks[k])
			c.Accum += o * (j*(j+1) + 2*j)
			c.Solve += float64(dims[k]) * (j*j*j/3 + 2*j*j)
		}
		c.Error += o * (g*(n+1) + 3)
		if truncated {
			c.Truncate += o * g * (n + 4)
		}
	}
	return c
}

package migration

// paretoFilter returns the subset of points that are Pareto-optimal in the
// (Cb, Ca) plane: no other point is at most as large in both coordinates
// and strictly smaller in one. Input order is preserved.
func paretoFilter(points []FrontierPoint) []FrontierPoint {
	var out []FrontierPoint
	for i, a := range points {
		dominated := false
		for j, b := range points {
			if i == j {
				continue
			}
			if b.Cb <= a.Cb && b.Ca <= a.Ca && (b.Cb < a.Cb || b.Ca < a.Ca) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	return out
}

// IsParetoFront reports whether the frontier sweep behaves as the paper's
// Fig. 6(b) observes: sorted by increasing C_b, C_a never increases —
// "C_a(m) cannot be reduced without increasing C_b(p,m)".
func IsParetoFront(points []FrontierPoint) bool {
	pts := paretoFilter(points)
	for i := 1; i < len(pts); i++ {
		if pts[i].Cb < pts[i-1].Cb-1e-9 {
			// paretoFilter preserved order, so a decrease in Cb means
			// the original sweep was not monotone in Cb.
			return false
		}
		if pts[i].Ca > pts[i-1].Ca+1e-9 {
			return false
		}
	}
	return true
}

// IsConvexFront reports whether the Pareto front is convex in the (Cb, Ca)
// plane — Theorem 5's sufficient condition for mPareto's frontier pick to
// be the minimum-total-cost solution among frontier points. Convexity here
// means every front point lies on or below the segment joining its
// neighbours.
func IsConvexFront(points []FrontierPoint) bool {
	pts := paretoFilter(points)
	for i := 1; i+1 < len(pts); i++ {
		a, b, c := pts[i-1], pts[i], pts[i+1]
		// Cross product of (b-a) x (c-a); ≥ 0 keeps the front convex
		// (turning left or collinear as Cb increases and Ca decreases).
		cross := (b.Cb-a.Cb)*(c.Ca-a.Ca) - (b.Ca-a.Ca)*(c.Cb-a.Cb)
		if cross < -1e-9 {
			return false
		}
	}
	return true
}

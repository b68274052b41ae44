package sparql

import "oassis/internal/vocab"

// StreamUnmemoized runs a Semantic-mode plan the way Stream did before the
// per-run match memo: every semantic triple re-collects its candidates from
// semCandidates and checks the bound sides with LeqE per fact, for every
// outer row. It is the oracle the memoized Stream is pinned against, row
// for row and in order. The plan must consist of semantic triples only
// (no star paths, no literal objects).
func (pl *Plan) StreamUnmemoized(yield func(row []vocab.TermID) bool) int {
	ex := pl.newExec()
	ex.yield = yield
	pl.oracleStep(ex, 0)
	return ex.emitted
}

func (pl *Plan) oracleStep(ex *exec, i int) {
	if ex.stop {
		return
	}
	if i == len(pl.ops) {
		ex.emit()
		return
	}
	o := &pl.ops[i]
	if o.kind != opSemTriple {
		panic("sparql: StreamUnmemoized supports semantic triples only")
	}
	pv, bound := ex.resolve(o.p)
	for _, pr := range pl.store.Predicates() {
		if ex.stop {
			return
		}
		if bound && !pl.v.LeqR(pv, pr) {
			continue
		}
		if ok, fresh := ex.trySet(o.p, pr); ok {
			pl.oracleSemTriple(ex, o, pr, i)
			if fresh {
				ex.unset(o.p)
			}
		}
	}
}

func (pl *Plan) oracleSemTriple(ex *exec, o *op, pred vocab.TermID, i int) {
	v := pl.v
	s, sOK := ex.resolve(o.s)
	obj, oOK := ex.resolve(o.o)
	for _, g := range pl.semCandidates(pred, s, sOK, obj, oOK) {
		if ex.stop {
			return
		}
		if sOK && !v.LeqE(s, g.S) {
			continue
		}
		if oOK && !v.LeqE(obj, g.O) {
			continue
		}
		var sAnc, oAnc []vocab.TermID
		if !sOK && o.s.slot >= 0 {
			sAnc = v.ElementAncestors(g.S)
		}
		if !oOK && o.o.slot >= 0 {
			oAnc = v.ElementAncestors(g.O)
		}
		for si := 0; si <= len(sAnc); si++ {
			sv := g.S
			if si < len(sAnc) {
				sv = sAnc[si]
			}
			ok1, fr1 := ex.trySet(o.s, sv)
			if !ok1 {
				continue
			}
			for oi := 0; oi <= len(oAnc); oi++ {
				ov := g.O
				if oi < len(oAnc) {
					ov = oAnc[oi]
				}
				if ok2, fr2 := ex.trySet(o.o, ov); ok2 {
					pl.oracleStep(ex, i+1)
					if fr2 {
						ex.unset(o.o)
					}
				}
			}
			if fr1 {
				ex.unset(o.s)
			}
		}
	}
}

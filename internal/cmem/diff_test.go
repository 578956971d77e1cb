package cmem

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/ecc"
	"repro/internal/shifter"
	"repro/internal/xbar"
)

// TestCMEMMatchesDiagonalScheme pins the request path to this gate-level
// spec. The protected machine keeps the diagonal code's check bits in the
// registered "diagonal" ecc.Scheme rather than in a CMEM, so one seeded
// stream drives both: critical updates in both orientations (random
// selection masks, random processing crossbar), one or two data faults in
// a block, check-bit faults, and block-line checks in both orientations.
// After every step the memory images and the check-bit images must be
// equal, and every check must reach the same per-block diagnoses.
func TestCMEMMatchesDiagonalScheme(t *testing.T) {
	spec, err := ecc.SchemeByName(ecc.SchemeDiagonal)
	if err != nil {
		t.Fatal(err)
	}
	orients := []shifter.Orientation{shifter.RowParallel, shifter.ColParallel}
	for _, cfg := range []Config{{N: 45, M: 15, K: 2}, {N: 90, M: 15, K: 3}, {N: 21, M: 7, K: 1}} {
		t.Run(fmt.Sprintf("n%d_m%d", cfg.N, cfg.M), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cfg.N*100 + cfg.M)))
			n, m := cfg.N, cfg.M
			g := n / m
			memC := xbar.New(n, n)
			memC.Mat().Randomize(rng)
			memS := memC.Mat().Clone()
			c := New(cfg)
			c.LoadFrom(memC.Mat())
			sch := spec.New(ecc.Params{N: n, M: m}, memS)
			cb := ecc.DiagonalCheckBits(sch)
			seen := map[ecc.Kind]int{}

			for step := 0; step < 400; step++ {
				var what string
				switch op := rng.Intn(10); {
				case op < 4:
					o, idx := orients[rng.Intn(2)], rng.Intn(n)
					sel := bitmat.NewVec(n)
					for i := 0; i < n; i++ {
						sel.Set(i, rng.Intn(2) == 0)
					}
					var old *bitmat.Vec
					if o == shifter.RowParallel {
						old = memS.Col(idx)
					} else {
						old = memS.Row(idx).Clone()
					}
					cur := old.Clone()
					for i := sel.NextOne(0); i >= 0; i = sel.NextOne(i + 1) {
						cur.Set(i, rng.Intn(2) == 0)
					}
					for i := 0; i < n; i++ {
						r, col := i, idx // a RowParallel op writes column idx
						if o == shifter.ColParallel {
							r, col = idx, i
						}
						memC.Set(r, col, cur.Get(i))
						memS.Set(r, col, cur.Get(i))
					}
					pc := rng.Intn(cfg.K)
					c.UpdateCritical(pc, CriticalUpdate{Orientation: o, Index: idx, Old: old, New: cur})
					if o == shifter.RowParallel {
						sch.UpdateColumnWrite(idx, old, cur, sel)
					} else {
						sch.UpdateRowWrite(idx, old, cur, sel)
					}
					what = fmt.Sprintf("critical update %v line %d on PC %d", o, idx, pc)
				case op < 6:
					br, bc := rng.Intn(g), rng.Intn(g)
					for k := 1 + rng.Intn(2); k > 0; k-- {
						r, col := br*m+rng.Intn(m), bc*m+rng.Intn(m)
						memC.Flip(r, col)
						memS.Flip(r, col)
					}
					what = fmt.Sprintf("data faults in block (%d,%d)", br, bc)
				case op < 7:
					f, d, br, bc := shifter.Family(rng.Intn(2)), rng.Intn(m), rng.Intn(g), rng.Intn(g)
					c.FlipCheckBit(f, d, br, bc)
					if f == shifter.Leading {
						cb.FlipLead(d, br, bc)
					} else {
						cb.FlipCounter(d, br, bc)
					}
					what = fmt.Sprintf("check-bit fault %v/%d in block (%d,%d)", f, d, br, bc)
				default:
					// The scheme checks the line as the machine does, through
					// CorrectLine: a ColParallel line is a block row, folded
					// line-parallel.
					o, idx, pc := orients[rng.Intn(2)], rng.Intn(g), rng.Intn(cfg.K)
					got := c.CheckLine(memC, o, idx, pc)
					found := sch.CorrectLine(memS, o == shifter.ColParallel, idx, nil)
					for b := 0; b < g; b++ {
						br, bc := idx, b // ColParallel checks block-row idx
						if o == shifter.RowParallel {
							br, bc = b, idx
						}
						want := ecc.Diagnosis{Kind: ecc.NoError}
						if len(found) > 0 && found[0].BR == br && found[0].BC == bc {
							want, found = found[0].Diag, found[1:]
						}
						gotD, ok := got[b]
						if !ok {
							gotD = ecc.Diagnosis{Kind: ecc.NoError}
						}
						if gotD != want {
							t.Fatalf("step %d: %v check of line %d, block (%d,%d): CMEM %+v, scheme %+v", step, o, idx, br, bc, gotD, want)
						}
						seen[want.Kind]++
					}
					if len(found) > 0 {
						t.Fatalf("step %d: findings out of block order or off the line: %+v", step, found)
					}
					what = fmt.Sprintf("%v check of line %d on PC %d", o, idx, pc)
				}
				if !memC.Mat().Equal(memS) {
					t.Fatalf("step %d (%s): memory images diverged", step, what)
				}
				if !c.Image().Equal(cb) {
					t.Fatalf("step %d (%s): check-bit images diverged", step, what)
				}
			}
			for _, k := range []ecc.Kind{ecc.DataError, ecc.LeadCheckError, ecc.CounterCheckError, ecc.Uncorrectable} {
				if seen[k] == 0 {
					t.Errorf("the stream never produced a %v diagnosis: %v", k, seen)
				}
			}
		})
	}
}

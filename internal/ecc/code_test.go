package ecc

import (
	"fmt"
	mathbits "math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitmat"
)

// testParams is a small geometry that keeps exhaustive tests fast while
// exercising multiple blocks: 45×45 crossbar, 3×3 grid of 15×15 blocks.
var testParams = Params{N: 45, M: 15}

func randomMemory(seed int64, p Params) *bitmat.Mat {
	rng := rand.New(rand.NewSource(seed))
	m := bitmat.NewMat(p.N, p.N)
	m.Randomize(rng)
	return m
}

func TestBuildZeroSyndrome(t *testing.T) {
	mem := randomMemory(1, testParams)
	cb := Build(testParams, mem)
	for br := 0; br < testParams.BlocksPerSide(); br++ {
		for bc := 0; bc < testParams.BlocksPerSide(); bc++ {
			lead, counter := cb.Syndrome(mem, br, bc)
			if lead != 0 || counter != 0 {
				t.Fatalf("block (%d,%d) has non-zero syndrome on freshly built code", br, bc)
			}
		}
	}
}

func TestZeroMemoryZeroCheckBits(t *testing.T) {
	mem := bitmat.NewMat(testParams.N, testParams.N)
	cb := Build(testParams, mem)
	if !cb.Equal(NewCheckBits(testParams)) {
		t.Fatal("all-zero memory should give all-zero check bits")
	}
}

func TestSingleDataFlipSyndromeSignature(t *testing.T) {
	mem := randomMemory(2, testParams)
	cb := Build(testParams, mem)
	p := testParams

	mem.Flip(20, 33) // block (1,2), local (5,3)
	br, bc, lr, lc := p.BlockOf(20, 33)
	lead, counter := cb.Syndrome(mem, br, bc)
	if ln, cn := mathbits.OnesCount64(lead), mathbits.OnesCount64(counter); ln != 1 || cn != 1 {
		t.Fatalf("syndrome popcounts = (%d,%d), want (1,1)", ln, cn)
	}
	if lead>>uint(p.LeadIdx(lr, lc))&1 == 0 || counter>>uint(p.CounterIdx(lr, lc))&1 == 0 {
		t.Fatal("syndrome bits at wrong diagonal indices")
	}
	// Other blocks remain clean — errors are contained per block.
	for obr := 0; obr < p.BlocksPerSide(); obr++ {
		for obc := 0; obc < p.BlocksPerSide(); obc++ {
			if obr == br && obc == bc {
				continue
			}
			l, c := cb.Syndrome(mem, obr, obc)
			if l != 0 || c != 0 {
				t.Fatalf("unrelated block (%d,%d) shows syndrome", obr, obc)
			}
		}
	}
}

func TestUpdateWriteMatchesRebuild(t *testing.T) {
	// Continuous (delta) update over a random write sequence must equal
	// rebuilding check bits from scratch — the core continuous-parity claim.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mem := randomMemory(seed, testParams)
		cb := Build(testParams, mem)
		for i := 0; i < 200; i++ {
			r, c := rng.Intn(testParams.N), rng.Intn(testParams.N)
			oldV := mem.Get(r, c)
			newV := rng.Intn(2) == 0
			cb.UpdateWrite(r, c, oldV, newV)
			mem.Set(r, c, newV)
		}
		return cb.Equal(Build(testParams, mem))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateColumnWriteMatchesRebuild(t *testing.T) {
	// Column-parallel MAGIC op: column c rewritten across a random row mask.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := testParams
		mem := randomMemory(seed+1000, p)
		cb := Build(p, mem)
		c := rng.Intn(p.N)
		rows := bitmat.NewVec(p.N)
		for r := 0; r < p.N; r++ {
			rows.Set(r, rng.Intn(2) == 0)
		}
		oldCol := mem.Col(c)
		newCol := oldCol.Clone()
		for _, r := range rows.OnesIndices() {
			newCol.Set(r, rng.Intn(2) == 0)
		}
		cb.UpdateColumnWrite(c, oldCol, newCol, rows)
		for _, r := range rows.OnesIndices() {
			mem.Set(r, c, newCol.Get(r))
		}
		return cb.Equal(Build(p, mem))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRowWriteMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := testParams
		mem := randomMemory(seed+2000, p)
		cb := Build(p, mem)
		r := rng.Intn(p.N)
		cols := bitmat.NewVec(p.N)
		for c := 0; c < p.N; c++ {
			cols.Set(c, rng.Intn(2) == 0)
		}
		oldRow := mem.Row(r).Clone()
		newRow := oldRow.Clone()
		for _, c := range cols.OnesIndices() {
			newRow.Set(c, rng.Intn(2) == 0)
		}
		cb.UpdateRowWrite(r, oldRow, newRow, cols)
		for _, c := range cols.OnesIndices() {
			mem.Set(r, c, newRow.Get(c))
		}
		return cb.Equal(Build(p, mem))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateWriteNoChangeIsNoop(t *testing.T) {
	mem := randomMemory(3, testParams)
	cb := Build(testParams, mem)
	snap := cb.Clone()
	cb.UpdateWrite(5, 5, true, true)
	cb.UpdateWrite(5, 5, false, false)
	if !cb.Equal(snap) {
		t.Fatal("no-change update altered check bits")
	}
}

func TestResetBlock(t *testing.T) {
	p := testParams
	mem := randomMemory(4, p)
	cb := Build(p, mem)
	// Zero block (1,1)'s data and reset its check bits directly.
	for lr := 0; lr < p.M; lr++ {
		for lc := 0; lc < p.M; lc++ {
			mem.Set(p.M+lr, p.M+lc, false)
		}
	}
	cb.ResetBlock(1, 1)
	if d := cb.CheckBlock(mem, 1, 1); d.Kind != NoError {
		t.Fatalf("after block reset, diagnosis = %v", d.Kind)
	}
}

func TestCloneAndEqual(t *testing.T) {
	mem := randomMemory(5, testParams)
	cb := Build(testParams, mem)
	cp := cb.Clone()
	if !cb.Equal(cp) {
		t.Fatal("clone differs")
	}
	cp.FlipLead(0, 0, 0)
	if cb.Equal(cp) {
		t.Fatal("Equal missed a flipped check bit")
	}
}

func TestBuildRejectsWrongSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build with mismatched memory size did not panic")
		}
	}()
	Build(testParams, bitmat.NewMat(10, 10))
}

func TestNewCheckBitsRejectsBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCheckBits with invalid params did not panic")
		}
	}()
	NewCheckBits(Params{N: 16, M: 4})
}

// TestConcurrentScrubsShareMasks: crossbars of one geometry share one
// immutable segment-mask table, built on first use. Goroutines that
// build and scrub their own crossbars at once, from that first use on,
// must each repair their own errors exactly; under -race this also
// checks that nothing writes the shared table after it is published.
func TestConcurrentScrubsShareMasks(t *testing.T) {
	p := Params{N: 84, M: 7} // used by no other test, so the table starts unbuilt
	const workers = 4
	errs := make(chan string, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			mem := randomMemory(int64(40+g), p)
			cb := Build(p, mem)
			want := mem.Clone()
			for round := 0; round < 20; round++ {
				r, c := (g*31+round*17)%p.N, (g*13+round*29)%p.N
				mem.Flip(r, c)
				if rep := cb.Scrub(mem); rep.DataCorrected != 1 || rep.Uncorrectable != 0 || !mem.Equal(want) {
					errs <- fmt.Sprintf("worker %d round %d: scrub %+v did not repair (%d,%d)", g, round, rep, r, c)
					return
				}
			}
			errs <- ""
		}(g)
	}
	for g := 0; g < workers; g++ {
		if e := <-errs; e != "" {
			t.Error(e)
		}
	}
}

package pmem

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// TestInstrumentCountsPerBank: the per-bank access, scrub, and injection
// series tick exactly with the operations performed, attributed to the
// right bank, and the machine-level ECC series appear under the scheme
// label.
func TestInstrumentCountsPerBank(t *testing.T) {
	mem, err := New(smallCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	mem.Instrument(reg)

	// Bank 0: one bit write + one bit read (width-1 words). Bank 1: a
	// word write.
	if err := mem.WriteWord(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.ReadWord(0, 1); err != nil {
		t.Fatal(err)
	}
	bank1 := mem.Config().Org.BankBits() // first bit of bank 1
	if err := mem.WriteWord(bank1, 0xff, 8); err != nil {
		t.Fatal(err)
	}
	c, u := mem.ScrubCrossbar(0, 1)
	if c != 0 || u != 0 {
		t.Fatalf("clean scrub found c=%d u=%d", c, u)
	}
	flips := mem.InjectModel(1, 0, faults.Transient{SER: 1e9}, rand.New(rand.NewSource(7)), 1)

	snap := reg.Snapshot()
	checks := []struct {
		key  string
		want int64
	}{
		{`pmem_writes_total{bank="0"}`, 1},
		{`pmem_reads_total{bank="0"}`, 1},
		{`pmem_writes_total{bank="1"}`, 1},
		{`pmem_scrubs_total{bank="0"}`, 1},
		{`pmem_scrubs_total{bank="1"}`, 0},
		{`pmem_scrub_corrected_total{bank="0"}`, 0},
		{`pmem_injected_total{bank="1"}`, int64(flips)},
	}
	for _, c := range checks {
		if got := snap.Counter(c.key); got != c.want {
			t.Errorf("%s = %d, want %d", c.key, got, c.want)
		}
	}
	// Protected writes charge the diagonal code's 2-reads-per-line update
	// cost on the scheme-labeled machine series.
	if got := snap.Counter(`ecc_update_reads_total{scheme="diagonal"}`); got < 4 {
		t.Errorf("ecc_update_reads_total = %d, want >= 4 (2 protected writes x 2 reads)", got)
	}
	// Scrub and injection landed on the event ring with bank attribution.
	var sawScrub, sawInject bool
	for _, e := range reg.Events().Recent(0) {
		switch e.Kind {
		case telemetry.EvScrub:
			sawScrub = e.Bank == 0 && e.Xbar == 1
		case telemetry.EvInject:
			sawInject = e.Bank == 1 && e.Xbar == 0 && e.A == int64(flips)
		}
	}
	if !sawScrub || !sawInject {
		t.Errorf("event trace incomplete: scrub=%v inject=%v", sawScrub, sawInject)
	}

	// Detaching restores the uninstrumented path.
	mem.Instrument(nil)
	if err := mem.WriteWord(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counter(`pmem_writes_total{bank="0"}`); got != 1 {
		t.Errorf("detached memory still counted: %d", got)
	}
}

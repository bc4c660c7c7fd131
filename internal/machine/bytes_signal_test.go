package machine

import (
	"testing"

	"mperf/internal/isa"
)

// TestByteSignalsMatchStats pins the per-level byte attribution plumbing
// on the observed path: for a mixed load/store stream, the l1d_bytes,
// l2_bytes and dram_bytes deltas delivered through the EventSink must
// sum to exactly the core's charged Stats, which must in turn equal the
// hierarchy's own per-level byte counters — on both pipeline kinds.
func TestByteSignalsMatchStats(t *testing.T) {
	for _, cfg := range []Config{inOrderConfig(), oooConfig()} {
		t.Run(cfg.Name, func(t *testing.T) {
			var sink recordingSink
			c := NewCore(cfg, &sink)
			seed := uint64(99)
			next := func() uint64 {
				seed = seed*6364136223846793005 + 1442695040888963407
				return seed >> 33
			}
			for i := 0; i < 20_000; i++ {
				u := Uop{Src1: -1, Src2: -1, Src3: -1, Dst: -1}
				u.Addr = 0x4000 + (next() % (1 << 18))
				u.Size = 1 << (next() % 4) // 1, 2, 4, 8 bytes
				if next()%3 == 0 {
					u.Class = OpStore
					u.Src1 = int32(next() % 32)
				} else {
					u.Class = OpLoad
					u.Dst = int32(next() % 32)
				}
				c.Exec(&u)
			}
			st := c.Stats()
			if st.L1DBytes == 0 || st.L2Bytes == 0 || st.DRAMBytes == 0 {
				t.Fatalf("byte stats not charged: %+v", st)
			}
			if got := sink.totals[isa.SigL1DBytes]; got != st.L1DBytes {
				t.Errorf("l1d_bytes signal = %d, stats charge %d", got, st.L1DBytes)
			}
			if got := sink.totals[isa.SigL2Bytes]; got != st.L2Bytes {
				t.Errorf("l2_bytes signal = %d, stats charge %d", got, st.L2Bytes)
			}
			if got := sink.totals[isa.SigDRAMBytes]; got != st.DRAMBytes {
				t.Errorf("dram_bytes signal = %d, stats charge %d", got, st.DRAMBytes)
			}
			h := c.Mem()
			if st.L1DBytes != h.L1Bytes || st.L2Bytes != h.L2Bytes {
				t.Errorf("stats bytes (%d, %d) diverge from hierarchy (%d, %d)",
					st.L1DBytes, st.L2Bytes, h.L1Bytes, h.L2Bytes)
			}
			if st.DRAMBytes != h.DRAM().Bytes {
				t.Errorf("stats DRAM bytes %d != channel %d", st.DRAMBytes, h.DRAM().Bytes)
			}
		})
	}
}

// TestByteSignalsAcrossCacheReset pins the counter contract of
// Hierarchy.Reset: emptying the caches between two runs of the same
// load/store stream (as roofline.RunTwoPhase does between its phases)
// leaves the hierarchy's byte counters running, so the core's Stats,
// which read them, count both runs, and the byte signals flushed
// across the Reset are exact deltas rather than wrapped-around ones —
// with a per-uop flushing sink and with a batching one, on both
// pipeline kinds.
func TestByteSignalsAcrossCacheReset(t *testing.T) {
	sinks := []struct {
		name string
		new  func() (EventSink, *recordingSink)
	}{
		{"per-uop", func() (EventSink, *recordingSink) { s := &recordingSink{}; return s, s }},
		{"batched", func() (EventSink, *recordingSink) { s := &applyLog{}; return s, &s.recordingSink }},
	}
	for _, cfg := range []Config{inOrderConfig(), oooConfig()} {
		for _, sk := range sinks {
			t.Run(cfg.Name+"/"+sk.name, func(t *testing.T) {
				sink, totals := sk.new()
				c := NewCore(cfg, sink)
				run := func() {
					seed := uint64(7)
					next := func() uint64 {
						seed = seed*6364136223846793005 + 1442695040888963407
						return seed >> 33
					}
					for i := 0; i < 8192; i++ {
						u := Uop{Src1: -1, Src2: -1, Src3: -1, Dst: -1}
						u.Addr = 0x4000 + (next() % (1 << 18))
						u.Size = 1 << (next() % 4)
						if next()%3 == 0 {
							u.Class = OpStore
							u.Src1 = int32(next() % 32)
						} else {
							u.Class = OpLoad
							u.Dst = int32(next() % 32)
						}
						c.Exec(&u)
					}
					c.FlushEvents()
				}
				byteStats := func(st Stats) [3]uint64 { return [3]uint64{st.L1DBytes, st.L2Bytes, st.DRAMBytes} }

				run()
				first := byteStats(c.Stats())
				if first[0] == 0 || first[1] == 0 || first[2] == 0 {
					t.Fatalf("first run charged no traffic: %v", first)
				}
				c.Mem().Reset()
				run()

				got := byteStats(c.Stats())
				h := c.Mem()
				if hier := [3]uint64{h.L1Bytes, h.L2Bytes, h.DRAM().Bytes}; got != hier {
					t.Errorf("stats bytes %v diverge from hierarchy %v", got, hier)
				}
				if want := [3]uint64{2 * first[0], 2 * first[1], 2 * first[2]}; got != want {
					t.Errorf("stats bytes %v after a cache reset, want twice the first run %v", got, want)
				}
				signals := [3]uint64{totals.totals[isa.SigL1DBytes], totals.totals[isa.SigL2Bytes], totals.totals[isa.SigDRAMBytes]}
				if signals != got {
					t.Errorf("byte signals %v diverge from stats %v", signals, got)
				}
			})
		}
	}
}

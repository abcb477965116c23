package gompi_test

import (
	"runtime"
	"testing"

	"gompi"
)

// TestYieldBeforePark: a rank waiting for a message hands the processor
// to its peers before it sleeps, so on one P the peer it waits for has
// usually delivered by the time it runs again, and it never parks. A
// rank that parked on every receive (about one park per message) fails
// the bound by an order of magnitude.
func TestYieldBeforePark(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	parksPerMsg := func(t *testing.T, ranks int, cfg gompi.Config, body func(p *gompi.Proc) error) {
		t.Helper()
		var st gompi.Stats
		cfg.Device, cfg.Fabric, cfg.Stats = gompi.DeviceCH4, gompi.FabricOFI, &st
		if err := gompi.Run(ranks, cfg, body); err != nil {
			t.Fatal(err)
		}
		agg := st.Aggregate()
		msgs := agg.NetRecv.Msgs + agg.ShmRecv.Msgs + agg.Self.Msgs
		if msgs == 0 {
			t.Fatal("no message was received")
		}
		t.Logf("%d parks for %d received messages", agg.Parks, msgs)
		if per := float64(agg.Parks) / float64(msgs); per > 0.1 {
			t.Errorf("%.3f parks per received message, want <= 0.1", per)
		}
	}

	t.Run("pingpong", func(t *testing.T) {
		const rounds = 500 // 1000 messages
		parksPerMsg(t, 2, gompi.Config{}, func(p *gompi.Proc) error {
			w := p.World()
			peer := 1 - p.Rank()
			sbuf, rbuf := []byte{1}, make([]byte, 1)
			reqs := make([]*gompi.Request, 1)
			for i := 0; i < rounds; i++ {
				for turn := 0; turn < 2; turn++ {
					var err error
					if turn == p.Rank() {
						reqs[0], err = w.Isend(sbuf, 1, gompi.Byte, peer, 0)
					} else {
						reqs[0], err = w.Irecv(rbuf, 1, gompi.Byte, peer, 0)
					}
					if err == nil {
						err = gompi.Waitall(reqs)
					}
					if err != nil {
						return err
					}
				}
			}
			return nil
		})
	})

	t.Run("allreduce", func(t *testing.T) {
		const calls = 200
		parksPerMsg(t, 8, gompi.Config{RanksPerNode: 2}, func(p *gompi.Proc) error {
			w := p.World()
			vals := make([]float64, 2)
			for i := 0; i < calls; i++ {
				vals[0], vals[1] = float64(p.Rank()), 1 // the sum lands in vals
				sum, err := w.AllreduceFloat64(vals, gompi.OpSum)
				if err != nil {
					return err
				}
				if sum[0] != 28 || sum[1] != 8 {
					t.Errorf("rank %d call %d: sum %v, want [28 8]", p.Rank(), i, sum)
				}
			}
			return nil
		})
	})
}

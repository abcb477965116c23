package gompi

import (
	"bytes"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/flight"
)

// TestWatchdogTripsOnDeadlock drives the canonical deadlock — two ranks
// each blocked in a Recv the other will never satisfy — and checks that
// the stall watchdog trips, Run surfaces ErrStalled, and the diagnosis
// names the unmatched posted receives on both ranks with the
// who-waits-on-whom edges.
func TestWatchdogTripsOnDeadlock(t *testing.T) {
	for _, dev := range []DeviceKind{DeviceCH4, DeviceOriginal} {
		t.Run(string(dev), func(t *testing.T) {
			var diag bytes.Buffer
			var st Stats
			cfg := Config{
				Device: dev, Fabric: "ofi",
				Watchdog:         true,
				WatchdogInterval: 5 * time.Millisecond,
				DiagWriter:       &diag,
				Stats:            &st,
			}
			err := Run(2, cfg, func(p *Proc) error {
				w := p.World()
				buf := make([]byte, 8)
				// Both ranks receive from the other; nobody ever sends.
				_, err := w.Recv(buf, 8, Byte, 1-p.Rank(), 0)
				return err
			})
			if !errors.Is(err, ErrStalled) {
				t.Fatalf("err = %v, want ErrStalled", err)
			}
			if st.WatchdogTrips != 1 {
				t.Errorf("WatchdogTrips = %d, want 1", st.WatchdogTrips)
			}
			out := diag.String()
			if !bytes.Contains(diag.Bytes(), []byte("stall watchdog tripped")) {
				t.Errorf("diagnosis missing trip header:\n%s", out)
			}
			// Both ranks' unmatched posted receives must be named, with
			// the concrete source each is waiting on.
			for rank := 0; rank < 2; rank++ {
				want := fmt.Sprintf("src=%d tag=0", 1-rank)
				if !bytes.Contains(diag.Bytes(), []byte(want)) {
					t.Errorf("diagnosis missing posted receive %q on rank %d:\n%s", want, rank, out)
				}
			}
			if !bytes.Contains(diag.Bytes(), []byte("posted recv")) {
				t.Errorf("diagnosis missing posted-recv lines:\n%s", out)
			}
			if dev == DeviceCH4 {
				// The fabric wait-graph renders explicit edges.
				for _, want := range []string{"rank 0 waits on rank 1", "rank 1 waits on rank 0"} {
					if !bytes.Contains(diag.Bytes(), []byte(want)) {
						t.Errorf("diagnosis missing edge %q:\n%s", want, out)
					}
				}
			}
			if !bytes.Contains(diag.Bytes(), []byte("flight recorder")) {
				t.Errorf("diagnosis missing flight-recorder dump:\n%s", out)
			}

			// A creation collective parks like any other wait: rank 0
			// sits in Split while rank 1 waits to receive from it.
			t.Run("creation", func(t *testing.T) {
				var diag bytes.Buffer
				cfg.DiagWriter, cfg.Stats = &diag, nil
				err := Run(2, cfg, func(p *Proc) error {
					if p.Rank() == 0 {
						_, err := p.World().Split(0, 0)
						return err
					}
					_, err := p.World().Recv(make([]byte, 1), 1, Byte, 0, 0)
					return err
				})
				if !errors.Is(err, ErrStalled) {
					t.Fatalf("err = %v, want ErrStalled", err)
				}
				// Start-up was the world's rendezvous 0; Split is 1.
				want := "rendezvous ctx=0 seq=1: 1/2 arrived, waiting on comm rank(s) [1]"
				if !bytes.Contains(diag.Bytes(), []byte(want)) {
					t.Errorf("diagnosis missing %q:\n%s", want, diag.String())
				}
			})

			// A window-lock wait parks like any other wait: rank 0 holds
			// rank 1's exclusive lock and waits to receive what nobody
			// sends, while rank 1 waits for that lock.
			t.Run("lock", func(t *testing.T) {
				for _, lk := range []struct {
					name string
					lock func(win *Win) error
				}{
					{"Lock", func(win *Win) error { return win.Lock(1, true) }},
					{"LockAllExclusive", func(win *Win) error { return win.LockAllExclusive() }},
				} {
					t.Run(lk.name, func(t *testing.T) {
						var diag bytes.Buffer
						cfg.DiagWriter, cfg.Stats = &diag, nil
						err := failFast(t, 2, cfg, func(p *Proc) error {
							w := p.World()
							win, _, err := w.WinAllocate(8, 1)
							if err != nil {
								return err
							}
							if p.Rank() == 0 {
								if err := win.Lock(1, true); err != nil {
									return err
								}
							}
							if err := w.Barrier(); err != nil {
								return err
							}
							if p.Rank() == 0 {
								_, err := w.Recv(make([]byte, 1), 1, Byte, 1, 0)
								return err
							}
							return lk.lock(win)
						})
						if !errors.Is(err, ErrStalled) {
							t.Fatalf("err = %v, want ErrStalled", err)
						}
						for rank := 0; rank < 2; rank++ {
							re := regexp.MustCompile(fmt.Sprintf(`(?m)^rank %d: vcycles=\d+ \(as of last park\) parked=true$`, rank))
							if !re.Match(diag.Bytes()) {
								t.Errorf("diagnosis does not show rank %d parked:\n%s", rank, diag.String())
							}
						}
					})
				}
			})
		})
	}
}

// promCount extracts the value of a metric_count{rank="all"} line.
func promCount(t *testing.T, prom, metric string) int64 {
	t.Helper()
	re := regexp.MustCompile(regexp.QuoteMeta(metric) + `_count\{rank="all"\} (\d+)`)
	m := re.FindStringSubmatch(prom)
	if m == nil {
		t.Fatalf("metric %s_count{rank=\"all\"} not found in prom output", metric)
	}
	n, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestWatchdogHealthyRunAndProm runs a healthy 4-rank exchange with the
// watchdog armed: zero trips, no diagnosis output, and the Prometheus
// export reports post→match and unexpected-residency percentiles with
// real observation counts.
func TestWatchdogHealthyRunAndProm(t *testing.T) {
	var diag bytes.Buffer
	var st Stats
	cfg := Config{
		Device: "ch4", Fabric: "ofi", RanksPerNode: 2,
		Watchdog:   true,
		DiagWriter: &diag,
		Stats:      &st,
	}
	const msgs = 8
	err := Run(4, cfg, func(p *Proc) error {
		w := p.World()
		next := (p.Rank() + 1) % p.Size()
		prev := (p.Rank() + p.Size() - 1) % p.Size()
		// Send first so some messages land unexpected, then receive;
		// a second round posts receives before the barrier-released
		// sends so post→match also sees non-trivial spans.
		for i := 0; i < msgs; i++ {
			if err := w.Send([]byte{byte(i)}, 1, Byte, next, i); err != nil {
				return err
			}
		}
		buf := make([]byte, 1)
		for i := 0; i < msgs; i++ {
			if _, err := w.Recv(buf, 1, Byte, prev, i); err != nil {
				return err
			}
		}
		return w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.WatchdogTrips != 0 {
		t.Fatalf("WatchdogTrips = %d, want 0", st.WatchdogTrips)
	}
	if diag.Len() != 0 {
		t.Errorf("healthy run wrote a diagnosis:\n%s", diag.String())
	}

	var prom bytes.Buffer
	if err := st.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, metric := range []string{"gompi_post_match_cycles", "gompi_unexpected_residency_cycles"} {
		if n := promCount(t, out, metric); n == 0 {
			t.Errorf("%s_count = 0, want > 0", metric)
		}
		if !bytes.Contains(prom.Bytes(), []byte(metric+`{rank="all",quantile="0.99"}`)) {
			t.Errorf("prom output missing %s p99 quantile", metric)
		}
	}
	// Per-rank series and the path counters must be present too.
	for _, want := range []string{
		`gompi_post_match_cycles{rank="0",quantile="0.5"}`,
		`gompi_path_msgs_total{rank="all",path="eager"}`,
		`gompi_virtual_cycles{rank="3"}`,
		"gompi_watchdog_trips_total 0",
	} {
		if !bytes.Contains(prom.Bytes(), []byte(want)) {
			t.Errorf("prom output missing %q", want)
		}
	}
}

// TestChaosWatchdogNoFalseTrips is the CI guard against watchdog false
// positives: a healthy chaos round (random traffic, both devices, shm
// and netmod) with the watchdog armed at its default interval must
// finish clean with zero trips. Run under -race via the ordinary test
// suite.
func TestChaosWatchdogNoFalseTrips(t *testing.T) {
	configs := []Config{
		{Device: "ch4", Fabric: "ofi", RanksPerNode: 2, Watchdog: true},
		{Device: "original", Fabric: "ofi", Watchdog: true},
	}
	for ci, cfg := range configs {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			var st Stats
			var diag bytes.Buffer
			cfg.Stats = &st
			cfg.DiagWriter = &diag
			chaosRound(t, cfg, int64(4000+ci))
			if st.WatchdogTrips != 0 {
				t.Fatalf("WatchdogTrips = %d, want 0\n%s", st.WatchdogTrips, diag.String())
			}
			if diag.Len() != 0 {
				t.Errorf("healthy chaos round wrote a diagnosis:\n%s", diag.String())
			}
		})
	}
}

// TestDumpStateInBody checks the in-body diagnosis entry point: a rank
// can dump the world state at any time, and the dump carries the header,
// every rank's clock line, and the device wait graph.
func TestDumpStateInBody(t *testing.T) {
	var dump bytes.Buffer
	run(t, 2, Config{Device: "ch4", Fabric: "inf"}, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			if err := w.Send([]byte{1}, 1, Byte, 1, 0); err != nil {
				return err
			}
			p.DumpState(&dump)
		} else {
			if _, err := w.Recv(make([]byte, 1), 1, Byte, 0, 0); err != nil {
				return err
			}
		}
		return w.Barrier()
	})
	out := dump.String()
	for _, want := range []string{"gompi state dump", "rank 0: vcycles=", "rank 1: vcycles=", "wait-graph"} {
		if !bytes.Contains(dump.Bytes(), []byte(want)) {
			t.Errorf("DumpState output missing %q:\n%s", want, out)
		}
	}
}

// TestDumpStateWhileRunning dumps the job from rank 1 while rank 0 is
// parked in a Recv, and then between the steps of an exchange loop that
// keeps rank 0 charging its ledger the whole time. A rank's live clock
// is single-writer, so the dump must show the clock each rank
// published: rank 1's own line is its exact clock; rank 0's appears
// once it parks, never runs backward, and is never ahead of where rank
// 0 really is. Under -race this is the guard that no dump path reads
// another rank's live clock.
func TestDumpStateWhileRunning(t *testing.T) {
	const steps = 200
	clockLine := regexp.MustCompile(`(?m)^rank (\d): vcycles=(\d+) `)
	var seen0 []int64 // rank 0's clock in each dump, as rank 1 saw it
	var final0 int64
	run(t, 2, Config{Device: "ch4", Fabric: "ofi"}, func(p *Proc) error {
		w := p.World()
		sbuf, rbuf := []byte{1}, make([]byte, 1)
		if p.Rank() == 0 {
			if _, err := w.Recv(rbuf, 1, Byte, 1, 9); err != nil {
				return err
			}
		}
		var dump bytes.Buffer
		// dumpClocks is rank 1 dumping the job: it checks its own line and
		// returns rank 0's.
		dumpClocks := func() (int64, error) {
			dump.Reset()
			p.DumpState(&dump)
			clocks := map[string]int64{}
			for _, m := range clockLine.FindAllStringSubmatch(dump.String(), -1) {
				clocks[m[1]], _ = strconv.ParseInt(m[2], 10, 64)
			}
			if len(clocks) != 2 {
				return 0, fmt.Errorf("dump has %d clock lines, want 2:\n%s", len(clocks), dump.String())
			}
			if own := int64(p.rank.Now()); clocks["1"] != own {
				return 0, fmt.Errorf("dump shows the caller at %d, its clock is %d", clocks["1"], own)
			}
			return clocks["0"], nil
		}
		if p.Rank() == 1 {
			// Rank 0 cannot leave its Recv until the Send below, so it
			// parks, and parking publishes its clock.
			for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
				c, err := dumpClocks()
				if err != nil {
					return err
				}
				if c > 0 {
					break
				}
				if time.Now().After(deadline) {
					return errors.New("rank 0 parked in Recv never published its clock")
				}
			}
			if err := w.Send(sbuf, 1, Byte, 0, 9); err != nil {
				return err
			}
		}
		peer := 1 - p.Rank()
		reqs := make([]*Request, 2)
		for i := 0; i < steps; i++ {
			var err error
			if reqs[0], err = w.Irecv(rbuf, 1, Byte, peer, 0); err != nil {
				return err
			}
			if reqs[1], err = w.Isend(sbuf, 1, Byte, peer, 0); err != nil {
				return err
			}
			if err := Waitall(reqs); err != nil {
				return err
			}
			if p.Rank() == 1 {
				c, err := dumpClocks()
				if err != nil {
					return fmt.Errorf("step %d: %w", i, err)
				}
				seen0 = append(seen0, c)
			}
		}
		if p.Rank() == 0 {
			final0 = int64(p.rank.Now())
		}
		return nil
	})
	for i, c := range seen0 {
		if i > 0 && c < seen0[i-1] {
			t.Fatalf("dump %d: rank 0's published clock ran backward, %d after %d", i, c, seen0[i-1])
		}
	}
	if last := seen0[len(seen0)-1]; last > final0 {
		t.Errorf("rank 0's last published clock %d is ahead of its final clock %d", last, final0)
	}
}

// TestStatsTraceEventsEdges pins Stats.TraceEvents behavior at the
// edges: out-of-range ranks return nil, and a run without tracing
// returns no events for any rank.
func TestStatsTraceEventsEdges(t *testing.T) {
	body := func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			return w.Send([]byte{1}, 1, Byte, 1, 0)
		}
		_, err := w.Recv(make([]byte, 1), 1, Byte, 0, 0)
		return err
	}

	st, err := RunStats(2, Config{Fabric: "inf", Trace: true}, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.TraceEvents(0)) == 0 {
		t.Error("traced run has no events for rank 0")
	}
	for _, rank := range []int{-1, 2, 1000} {
		if ev := st.TraceEvents(rank); ev != nil {
			t.Errorf("TraceEvents(%d) = %d events, want nil", rank, len(ev))
		}
	}

	st, err = RunStats(2, Config{Fabric: "inf"}, body)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 2; rank++ {
		if ev := st.TraceEvents(rank); len(ev) != 0 {
			t.Errorf("untraced run: TraceEvents(%d) = %d events, want 0", rank, len(ev))
		}
	}
}

// TestMetricsAndDumpWhilePeersRun is the single-writer registry's guard
// under -race, at 8 Ps: 8 ranks exchange all-to-all over the netmod —
// so every message is deposited by its sender's goroutine — while each
// takes Proc.Metrics() in the middle of the traffic, and then rank 3
// fails with a DiagWriter set, so its teardown dumps every rank's
// flight ring and matching units while the other seven keep
// exchanging. A rank's registry is plain words only its own goroutine
// touches: a deposit that noted into the receiver's registry, a
// snapshot that skipped a VCI lock, or a dump that read a live ring
// trips the race detector here. The counts are checked too: what the
// interfaces hold folds into the snapshot exactly.
func TestMetricsAndDumpWhilePeersRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const ranks, rounds, failing = 8, 60, 3
	boom := errors.New("rank 3 gives up")
	var diag bytes.Buffer
	var aborted atomic.Int32
	err := Run(ranks, Config{Device: DeviceCH4, Fabric: "ofi", DiagWriter: &diag}, func(p *Proc) error {
		w := p.World()
		me := p.Rank()
		sbuf := []byte{byte(me)}
		rbufs := make([][]byte, ranks)
		for i := range rbufs {
			rbufs[i] = make([]byte, 1)
		}
		reqs := make([]*Request, 0, 2*ranks)
		// exchange is one all-to-all among the ranks skip leaves in, with
		// a snapshot between the posts and the waits and one after.
		exchange := func(round int, skip int) (MetricsSnapshot, error) {
			reqs = reqs[:0]
			for peer := 0; peer < ranks; peer++ {
				if peer == me || peer == skip {
					continue
				}
				r, err := w.Irecv(rbufs[peer], 1, Byte, peer, round)
				if err != nil {
					return MetricsSnapshot{}, err
				}
				s, err := w.Isend(sbuf, 1, Byte, peer, round)
				if err != nil {
					return MetricsSnapshot{}, err
				}
				reqs = append(reqs, r, s)
			}
			mid := p.Metrics()
			if err := Waitall(reqs); err != nil {
				return mid, err
			}
			after := p.Metrics()
			if mid.NetRecv.Msgs > after.NetRecv.Msgs || mid.Lat.PostMatch.Count > after.Lat.PostMatch.Count {
				return after, fmt.Errorf("round %d: snapshot ran backward: %+v then %+v", round, mid.NetRecv, after.NetRecv)
			}
			return after, nil
		}
		var m MetricsSnapshot
		for r := 0; r < rounds; r++ {
			var err error
			if m, err = exchange(r, -1); err != nil {
				return err
			}
		}
		// Every receive of this rank has completed, so its 7 x rounds
		// matches are all counted, however many peers' goroutines
		// delivered them (a peer already in the next exchange may have
		// landed one more message each); so are its own sends.
		const msgs = (ranks - 1) * rounds
		if m.NetRecv.Msgs < msgs || m.NetRecv.Msgs >= msgs+ranks || m.NetSend.Msgs != msgs || m.Lat.PostMatch.Count != msgs ||
			m.Lat.UnexRes.Count != msgs || m.CopiesDirect.Msgs != msgs || m.Req.Allocs != 2*msgs {
			return fmt.Errorf("rank %d after %d rounds: net recv %+v send %+v, post-match %d, unexpected residency %d, direct copies %+v, requests %+v; want %d messages each way",
				me, rounds, m.NetRecv, m.NetSend, m.Lat.PostMatch.Count, m.Lat.UnexRes.Count, m.CopiesDirect, m.Req, msgs)
		}
		if me == failing {
			return boom
		}
		defer func() {
			if rec := recover(); rec != nil {
				aborted.Add(1)
				panic(rec)
			}
		}()
		for r := rounds; r < rounds+20000; r++ {
			if _, err := exchange(r, failing); err != nil {
				return err
			}
		}
		return nil
	})
	if want := fmt.Sprintf("rank %d: %v", failing, boom); err == nil || err.Error() != want {
		t.Fatalf("Run returned %v, want only %q", err, want)
	}
	if aborted.Load() == 0 {
		t.Error("no peer was still exchanging when the failing rank tore the world down: the dump overlapped nothing")
	}
	out := diag.String()
	for r := 0; r < ranks; r++ {
		for _, want := range []string{
			fmt.Sprintf("rank %d: vcycles=", r),
			fmt.Sprintf("rank %d flight recorder: ", r),
			fmt.Sprintf("rank %d   #", r),
		} {
			if !strings.Contains(out, want) {
				t.Errorf("dump has no %q", want)
			}
		}
	}
	// Each matching unit lists what peers landed there, every line placed
	// against its rank's own events by the ring position it carries.
	arrivals := regexp.MustCompile(`(?m)^  arrival #.*$`).FindAllString(out, -1)
	placed := regexp.MustCompile(`^  arrival #\d+ @\d+ (deposit|unexpected) peer=\d bytes=1 vci=0 ring>=\d+$`)
	for _, l := range arrivals {
		if !placed.MatchString(l) {
			t.Errorf("arrival line %q, want a deposit or an unexpected arrival with its ring position", l)
		}
	}
	if len(arrivals) == 0 || !strings.Contains(out, " deposit peer=") {
		t.Errorf("dump shows no matching unit's arrivals:\n%s", out)
	}
	// The failing rank exited, so its whole history is published: its
	// last owner-side event is the reap of its last receive.
	own := regexp.MustCompile(fmt.Sprintf(`(?m)^rank %d   #.*$`, failing)).FindAllString(out, -1)
	if len(own) != flight.Size || !strings.Contains(own[len(own)-1], " recv-done ") {
		t.Errorf("rank %d's ring shows %d events, want %d ending at its last reap:\n%s",
			failing, len(own), flight.Size, strings.Join(own, "\n"))
	}
}

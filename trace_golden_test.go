package gompi

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateTrace = flag.Bool("update", false, "rewrite testdata/trace.golden from this build's output")

// tracedRun is a traced 2-rank job that touches every span the library
// records: point-to-point, a collective and its schedule round, an RMA
// lock epoch with a flush, and an application phase. It
// returns the job's Chrome trace followed by each rank's summary.
func tracedRun(t *testing.T) []byte {
	t.Helper()
	var st Stats
	summaries := make([]bytes.Buffer, 2)
	// Rank 1 enters each two-sided step only after rank 0 has sent, so
	// every receive finds its message queued and what it charges does
	// not depend on goroutine interleaving.
	sent := make(chan struct{}, 2)
	err := Run(2, Config{Fabric: "inf", Trace: true, Stats: &st}, func(p *Proc) error {
		w := p.World()
		root := p.Rank() == 0
		buf := make([]byte, 64)
		p.PhaseBegin("exchange")
		p.ChargeCompute(1000)
		if root {
			if err := w.Send(buf, 64, Byte, 1, 7); err != nil {
				return err
			}
			sent <- struct{}{}
		} else {
			<-sent
			if _, err := w.Recv(buf, 64, Byte, 0, 7); err != nil {
				return err
			}
		}
		p.PhaseEnd()
		if !root {
			<-sent
		}
		if err := w.Bcast(buf, 16, Byte, 0); err != nil {
			return err
		}
		if root {
			sent <- struct{}{}
		}
		win, _, err := w.WinAllocate(16, 1)
		if err != nil {
			return err
		}
		if root {
			if err := win.Lock(1, false); err != nil {
				return err
			}
			if err := win.Put([]byte{3}, 1, Byte, 1, 4); err != nil {
				return err
			}
			if err := win.Flush(1); err != nil {
				return err
			}
			if err := win.Unlock(1); err != nil {
				return err
			}
		}
		p.WriteTraceSummary(&summaries[p.Rank()])
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := st.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	for r := range summaries {
		fmt.Fprintf(&out, "-- rank %d summary --\n", r)
		out.Write(summaries[r].Bytes())
	}
	return out.Bytes()
}

// TestTraceGolden pins every byte the trace exports — the Chrome JSON
// and the per-rank summary tables — for one fixed job.
func TestTraceGolden(t *testing.T) {
	got := tracedRun(t)
	path := filepath.Join("testdata", "trace.golden")
	if *updateTrace {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace output differs from %s (regenerate with -update only for an intended change):\ngot:\n%s", path, got)
	}
}

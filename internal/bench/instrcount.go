package bench

import (
	"fmt"

	"gompi"
)

// Breakdown is one Table 1 column: the per-category instruction cost of
// a single MPI call.
type Breakdown struct {
	Op       string
	Device   string
	Build    string
	Counters gompi.Counters
}

// InstrBreakdown measures the instruction cost of one 1-byte MPI_ISEND
// and MPI_PUT under the given device and build, on the infinitely fast
// network (so only MPI software instructions appear).
func InstrBreakdown(device gompi.DeviceKind, build gompi.BuildKind) (isend, put Breakdown, err error) {
	cfg := gompi.Config{Device: device, Fabric: gompi.FabricInf, Build: build}
	err = gompi.Run(2, cfg, func(p *gompi.Proc) error {
		w := p.World()
		// --- Isend ---
		if p.Rank() == 0 {
			buf := []byte{1}
			before := p.Counters()
			req, err := w.Isend(buf, 1, gompi.Byte, 1, 0)
			if err != nil {
				return err
			}
			isend = Breakdown{Op: "MPI_ISEND", Device: string(device), Build: string(build), Counters: p.Counters().Sub(before)}
			if _, err := req.Wait(); err != nil {
				return err
			}
		} else {
			rbuf := make([]byte, 1)
			if _, err := w.Recv(rbuf, 1, gompi.Byte, 0, 0); err != nil {
				return err
			}
		}
		// --- Put ---
		win, _, err := w.WinAllocate(16, 1)
		if err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			before := p.Counters()
			if err := win.Put([]byte{1}, 1, gompi.Byte, 1, 0); err != nil {
				return err
			}
			put = Breakdown{Op: "MPI_PUT", Device: string(device), Build: string(build), Counters: p.Counters().Sub(before)}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		return win.Free()
	})
	return isend, put, err
}

// Table1 returns the paper's Table 1: the per-category breakdown of the
// default ch4 build.
func Table1() (isend, put Breakdown, err error) {
	return InstrBreakdown("ch4", "default")
}

// Figure2 returns the instruction totals across the build ladder for
// both operations (the Figure 2 bars).
func Figure2() ([]Breakdown, []Breakdown, error) {
	var isends, puts []Breakdown
	for _, bl := range BuildLadder {
		is, pt, err := InstrBreakdown(bl.Device, bl.Build)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", bl.Label, err)
		}
		is.Device, pt.Device = bl.Label, bl.Label
		isends = append(isends, is)
		puts = append(puts, pt)
	}
	return isends, puts, nil
}

// ProposalSaving is one row of the Section 3 per-proposal savings
// analysis.
type ProposalSaving struct {
	Name    string
	Instr   int64 // instructions with the proposal applied
	Savings int64 // instructions saved versus the MPI-3.1 floor
}

// ProposalSavings measures each Section 3 proposal's instruction saving
// on the ipo build, matching the "Instruction Savings" notes of the
// paper: global rank ~10, predefined comm ~7-8, no PROC_NULL ~3, no
// request ~10, no match ~4-5, all combined -> 16 total.
func ProposalSavings() ([]ProposalSaving, int64, error) {
	cfg := gompi.Config{Device: gompi.DeviceCH4, Fabric: gompi.FabricInf, Build: gompi.BuildNoErrSingleIPO}
	var rows []ProposalSaving
	var base int64
	err := gompi.Run(2, cfg, func(p *gompi.Proc) error {
		w := p.World()
		if _, err := w.DupPredefined(gompi.Comm1); err != nil {
			return err
		}
		buf := []byte{1}
		measure := func(send func() error) (int64, error) {
			before := p.Counters()
			if err := send(); err != nil {
				return 0, err
			}
			return p.Counters().Sub(before).TotalInstr, nil
		}
		if p.Rank() != 0 {
			// Five variants target the world context and two target
			// the predefined communicator; drain each in arrival
			// order.
			rbuf := make([]byte, 1)
			for i := 0; i < 5; i++ {
				if _, err := w.RecvNoMatch(rbuf, 1, gompi.Byte); err != nil {
					return err
				}
			}
			for i := 0; i < 2; i++ {
				if _, err := p.PredefComm(gompi.Comm1).RecvNoMatch(rbuf, 1, gompi.Byte); err != nil {
					return err
				}
			}
			return nil
		}
		var err error
		base, err = measure(func() error {
			req, e := w.Isend(buf, 1, gompi.Byte, 1, 0)
			if e != nil {
				return e
			}
			_, e = req.Wait()
			return e
		})
		if err != nil {
			return err
		}
		variants := []struct {
			name string
			send func() error
		}{
			{"glob_rank (3.1)", func() error {
				req, e := w.IsendGlobal(buf, 1, gompi.Byte, 1, 0)
				if e != nil {
					return e
				}
				_, e = req.Wait()
				return e
			}},
			{"predef_comm (3.3)", func() error {
				req, e := p.IsendPredef(gompi.Comm1, buf, 1, gompi.Byte, 1, 0)
				if e != nil {
					return e
				}
				_, e = req.Wait()
				return e
			}},
			{"no_proc_null (3.4)", func() error {
				req, e := w.IsendNPN(buf, 1, gompi.Byte, 1, 0)
				if e != nil {
					return e
				}
				_, e = req.Wait()
				return e
			}},
			{"no_req (3.5)", func() error { return w.IsendNoReq(buf, 1, gompi.Byte, 1, 0) }},
			{"no_match (3.6)", func() error {
				req, e := w.IsendNoMatch(buf, 1, gompi.Byte, 1)
				if e != nil {
					return e
				}
				_, e = req.Wait()
				return e
			}},
			{"all_opts (3.7)", func() error { return p.IsendAllOpts(gompi.Comm1, buf, 1) }},
		}
		for _, v := range variants {
			n, err := measure(v.send)
			if err != nil {
				return err
			}
			rows = append(rows, ProposalSaving{Name: v.name, Instr: n, Savings: base - n})
		}
		if err := w.CommWaitall(); err != nil {
			return err
		}
		return p.PredefComm(gompi.Comm1).CommWaitall()
	})
	return rows, base, err
}

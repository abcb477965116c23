package main

import (
	"fmt"

	"gompi"
)

// invariant is one row of the paper's instruction counts: a warm
// 1-byte MPI_ISEND and MPI_PUT under a device and build, on the
// infinitely fast network so only MPI software instructions appear.
type invariant struct {
	label      string
	device     gompi.DeviceKind
	build      gompi.BuildKind
	isend, put int64
}

// paperInvariants are the counts the reproduction holds to the digit
// (Table 1, Figure 2, Section 3.7).
var paperInvariants = []invariant{
	{"ch4 default", gompi.DeviceCH4, gompi.BuildDefault, 221, 217},
	{"original default", gompi.DeviceOriginal, gompi.BuildDefault, 253, 1342},
	{"ch4 no-err-single-ipo", gompi.DeviceCH4, gompi.BuildNoErrSingleIPO, 59, 44},
}

// paperAllOpts is the MPI_ISEND_ALL_OPTS count on the ipo build.
const paperAllOpts = 16

// preflight re-measures every invariant through Proc.Counters around
// one warm call and fails on the first mismatch, so no number is
// printed by a build whose model has drifted from the paper's.
func preflight(want []invariant, wantAllOpts int64) error {
	for _, inv := range want {
		isend, put, err := measureCounts(inv.device, inv.build)
		if err != nil {
			return fmt.Errorf("pre-flight %s: %w", inv.label, err)
		}
		if isend != inv.isend || put != inv.put {
			return fmt.Errorf("pre-flight %s: Isend/Put charge %d/%d instructions, the paper's count is %d/%d",
				inv.label, isend, put, inv.isend, inv.put)
		}
	}
	got, err := measureAllOpts()
	if err != nil {
		return fmt.Errorf("pre-flight all-opts: %w", err)
	}
	if got != wantAllOpts {
		return fmt.Errorf("pre-flight all-opts: IsendAllOpts charges %d instructions, the paper's count is %d", got, wantAllOpts)
	}
	return nil
}

// measureCounts returns the instructions charged by the second (warm)
// 1-byte Isend and Put of rank 0.
func measureCounts(device gompi.DeviceKind, build gompi.BuildKind) (isend, put int64, err error) {
	cfg := gompi.Config{Device: device, Fabric: gompi.FabricInf, Build: build}
	err = gompi.Run(2, cfg, func(p *gompi.Proc) error {
		w := p.World()
		buf := []byte{1}
		for i := 0; i < 2; i++ {
			if p.Rank() == 0 {
				before := p.Counters()
				req, err := w.Isend(buf, 1, gompi.Byte, 1, 0)
				if err != nil {
					return err
				}
				isend = p.Counters().Sub(before).TotalInstr
				if _, err := req.Wait(); err != nil {
					return err
				}
			} else if _, err := w.Recv(make([]byte, 1), 1, gompi.Byte, 0, 0); err != nil {
				return err
			}
		}
		win, _, err := w.WinAllocate(16, 1)
		if err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			for i := 0; i < 2; i++ {
				before := p.Counters()
				if err := win.Put(buf, 1, gompi.Byte, 1, 0); err != nil {
					return err
				}
				put = p.Counters().Sub(before).TotalInstr
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		return win.Free()
	})
	return isend, put, err
}

func measureAllOpts() (int64, error) {
	var got int64
	cfg := gompi.Config{Device: gompi.DeviceCH4, Fabric: gompi.FabricInf, Build: gompi.BuildNoErrSingleIPO}
	err := gompi.Run(2, cfg, func(p *gompi.Proc) error {
		w := p.World()
		if _, err := w.DupPredefined(gompi.Comm1); err != nil {
			return err
		}
		c := p.PredefComm(gompi.Comm1)
		if p.Rank() != 0 {
			for i := 0; i < 2; i++ {
				if _, err := c.RecvNoMatch(make([]byte, 1), 1, gompi.Byte); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 2; i++ {
			before := p.Counters()
			if err := p.IsendAllOpts(gompi.Comm1, []byte{1}, 1); err != nil {
				return err
			}
			got = p.Counters().Sub(before).TotalInstr
		}
		return c.CommWaitall()
	})
	return got, err
}

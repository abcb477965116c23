package gompi

import (
	"fmt"
	"io"
	"testing"
)

// TestWildcardEveryLaneCount: a receive or probe with both MPI_ANY_SOURCE
// and MPI_ANY_TAG must search every VCI lane, whatever the lane count.
// Two senders each send 32 messages over tags 0-7, which hash to
// different lanes, to rank 0, which consumes them with Recv, Irecv,
// Probe followed by an exact Recv, and Mprobe, all with both wildcards,
// on World and then on a Dup. Every message must arrive with its
// (source, tag, bytes), and each sender's messages in the order it sent
// them (MPI's non-overtaking rule). The watchdog turns a receive that
// never finds its message into ErrStalled instead of a hang.
func TestWildcardEveryLaneCount(t *testing.T) {
	for _, lanes := range []int{1, 2, 4, 8} {
		for _, tm := range []bool{false, true} {
			cfg := Config{Device: DeviceCH4, Fabric: FabricOFI, VCIs: lanes, ThreadMultiple: tm,
				Watchdog: true, DiagWriter: io.Discard}
			if err := Run(3, cfg, wildcardProgram); err != nil {
				t.Errorf("VCIs %d, ThreadMultiple %v: %v", lanes, tm, err)
			}
		}
	}
}

// wildcardMsgs is how many messages each sender sends per communicator:
// eight for each of the receiver's four receive shapes.
const wildcardMsgs = 32

// wildcardMsg is sender src's seq-th message: tag seq%8, and 2-4 bytes
// carrying (src, seq).
func wildcardMsg(src, seq int) (tag int, payload []byte) {
	return seq % 8, append([]byte{byte(src), byte(seq)}, make([]byte, seq%3)...)
}

func wildcardProgram(p *Proc) error {
	w := p.World()
	dup, err := w.Dup()
	if err != nil {
		return err
	}
	for _, c := range []*Comm{w, dup} {
		if p.Rank() != 0 {
			for seq := 0; seq < wildcardMsgs; seq++ {
				tag, buf := wildcardMsg(p.Rank(), seq)
				if err := c.Send(buf, len(buf), Byte, 0, tag); err != nil {
					return err
				}
			}
			continue
		}
		if err := wildcardReceive(c); err != nil {
			return err
		}
	}
	return nil
}

// wildcardReceive consumes both senders' messages on c, eight per sender
// with each receive shape, checking every envelope and each sender's
// order.
func wildcardReceive(c *Comm) error {
	next := map[int]int{1: 0, 2: 0}
	check := func(how string, st Status, buf []byte) error {
		src, seq := int(buf[0]), int(buf[1])
		tag, want := wildcardMsg(src, next[src])
		if st.Source != src || seq != next[src] || st.Tag != tag || st.Count != len(want) {
			return fmt.Errorf("%s got (source %d, tag %d, %d bytes) carrying (%d, seq %d), want sender %d's seq %d (tag %d, %d bytes)",
				how, st.Source, st.Tag, st.Count, src, seq, src, next[src], tag, len(want))
		}
		next[src]++
		return nil
	}
	const n = 2 * wildcardMsgs / 4
	for i := 0; i < n; i++ {
		buf := make([]byte, 8)
		st, err := c.Recv(buf, len(buf), Byte, AnySource, AnyTag)
		if err != nil {
			return err
		}
		if err := check("Recv", st, buf); err != nil {
			return err
		}
	}
	bufs, reqs := make([][]byte, n), make([]*Request, n)
	for i := range reqs {
		bufs[i] = make([]byte, 8)
		var err error
		if reqs[i], err = c.Irecv(bufs[i], 8, Byte, AnySource, AnyTag); err != nil {
			return err
		}
	}
	for i, r := range reqs {
		st, err := r.Wait()
		if err != nil {
			return err
		}
		if err := check("Irecv", st, bufs[i]); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		pst, err := c.Probe(AnySource, AnyTag)
		if err != nil {
			return err
		}
		buf := make([]byte, 8)
		st, err := c.Recv(buf, len(buf), Byte, pst.Source, pst.Tag)
		if err != nil {
			return err
		}
		if st != pst {
			return fmt.Errorf("Probe saw %+v, the Recv it named got %+v", pst, st)
		}
		if err := check("Probe", st, buf); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		m, err := c.Mprobe(AnySource, AnyTag)
		if err != nil {
			return err
		}
		buf := make([]byte, 8)
		st, err := m.Recv(buf, len(buf), Byte)
		if err != nil {
			return err
		}
		if err := check("Mprobe", st, buf); err != nil {
			return err
		}
	}
	return nil
}

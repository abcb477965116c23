package ch4

import (
	"bytes"
	"fmt"
	"testing"

	"gompi/internal/core"
	"gompi/internal/datatype"
	"gompi/internal/fabric"
)

// TestIrecvReduceLentRendezvous: a receive-reduce over an unexpected
// lent netmod view folds the sender's buffer where it lies — no staging
// copy, no direct copy — and the fold's release completes the send.
func TestIrecvReduceLentRendezvous(t *testing.T) {
	const n = 4 * 8192 // past OFI's eager limit
	sent := make(chan struct{})
	runWorld(t, 2, 1, fabric.OFI, core.Default, func(e *env) error {
		if e.c.Rank() == 0 {
			req, err := e.d.Isend(bytes.Repeat([]byte{3}, n), n, datatype.Byte, 1, 9, e.c, 0)
			close(sent)
			if err != nil {
				return err
			}
			req.Wait()
			req.Free()
			return nil
		}
		<-sent // the view is parked unexpected before the receive is posted
		acc := bytes.Repeat([]byte{4}, n)
		req, err := e.d.IrecvReduce(acc, 0, 9, e.c, func(dst, in []byte) {
			for i := range dst {
				dst[i] += in[i]
			}
		})
		if err != nil {
			return err
		}
		req.Wait()
		req.Free()
		if !bytes.Equal(acc, bytes.Repeat([]byte{7}, n)) {
			return fmt.Errorf("fold result wrong")
		}
		if st := e.d.Stats(); st.CopiesStaged.Msgs != 0 || st.CopiesDirect.Msgs != 0 {
			return fmt.Errorf("copies staged/direct = %d/%d, want 0/0", st.CopiesStaged.Msgs, st.CopiesDirect.Msgs)
		}
		return nil
	})
}

// freeSendBoxes counts the device's recycled send boxes: it pops them
// all and pushes them back.
func freeSendBoxes(d *Device) int {
	var boxes []*sendBox
	for b := d.sendFree.Get(nil); b != nil; b = d.sendFree.Get(nil) {
		boxes = append(boxes, b)
	}
	for _, b := range boxes {
		d.sendFree.Put(b)
	}
	return len(boxes)
}

// TestRendezvousToPostedReceiveCompletesAtReturn: when the receive is
// already posted the lend ends inside the send (one copy into the
// posted buffer), so Isend returns its box's request completed — its
// lifetime observed before the call returns, not at a later poll — and
// freeing it puts the box back on the freelist; eager and requestless
// sends never take a box.
func TestRendezvousToPostedReceiveCompletesAtReturn(t *testing.T) {
	const n = 2 * 8192
	posted := make(chan struct{})
	runWorld(t, 2, 1, fabric.OFI, core.Default, func(e *env) error {
		if e.c.Rank() == 1 {
			buf := make([]byte, n)
			req, err := e.d.Irecv(buf, n, datatype.Byte, 0, 1, e.c, 0)
			close(posted)
			if err != nil {
				return err
			}
			req.Wait()
			req.Free()
			for _, small := range []int{1, 8192} {
				if _, err := e.d.Irecv(buf[:small], small, datatype.Byte, 0, 2, e.c, 0); err != nil {
					return err
				}
			}
			_, err = e.d.Irecv(buf, n, datatype.Byte, 0, 3, e.c, 0)
			return err
		}
		<-posted
		lives := e.d.rank.Metrics().Lat.ReqLife.Snapshot().Count
		req, err := e.d.Isend(make([]byte, n), n, datatype.Byte, 1, 1, e.c, 0)
		if err != nil {
			return err
		}
		if got := e.d.rank.Metrics().Lat.ReqLife.Snapshot().Count - lives; got != 1 || !req.Done() {
			return fmt.Errorf("rendezvous to a posted receive did not complete at return (%d lifetimes observed)", got)
		}
		if free := freeSendBoxes(e.d); free != 0 {
			return fmt.Errorf("send boxes on the freelist before Free = %d, want 0", free)
		}
		req.Free()
		if free := freeSendBoxes(e.d); free != 1 {
			return fmt.Errorf("send boxes on the freelist = %d, want 1", free)
		}
		for _, small := range []int{1, 8192} {
			if _, err := e.d.Isend(make([]byte, small), small, datatype.Byte, 1, 2, e.c, 0); err != nil {
				return err
			}
		}
		if _, err := e.d.Isend(make([]byte, n), n, datatype.Byte, 1, 3, e.c, core.FlagNoReq); err != nil {
			return err
		}
		if free := freeSendBoxes(e.d); free != 1 {
			return fmt.Errorf("eager or requestless sends took a send box: freelist = %d, want 1", free)
		}
		return nil
	})
}

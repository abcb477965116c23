package ch4

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"gompi/internal/core"
	"gompi/internal/datatype"
	"gompi/internal/fabric"
	"gompi/internal/instr"
	"gompi/internal/request"
)

// recvCharge is what one device operation charges its rank: the
// instructions of the three categories the device charges, and the
// transport cycles.
type recvCharge struct{ call, redundant, mandatory, transport int64 }

func chargeOf(b instr.Breakdown) recvCharge {
	return recvCharge{b.Count(instr.Call), b.Count(instr.Redundant), b.Count(instr.Mandatory), b.Count(instr.Transport)}
}

// recvCost runs one 2-rank exchange over OFI: rank 0 sends, and once
// the message waits unexpected at rank 1, rank 1 posts recv and waits
// for it. It returns what rank 1 was charged from the post through
// completion.
func recvCost(t *testing.T, vcis int, send func(e *env) error, recv func(e *env) (*request.Request, error)) recvCharge {
	t.Helper()
	cfg := core.Default
	cfg.VCIs = vcis
	sent := make(chan struct{})
	var got recvCharge
	runWorld(t, 2, 1, fabric.OFI, cfg, func(e *env) error {
		if e.c.Rank() == 0 {
			defer close(sent)
			return send(e)
		}
		<-sent
		snap := e.d.rank.Profile().Snap()
		req, err := recv(e)
		if err != nil {
			return err
		}
		req.Wait()
		req.Free()
		got = chargeOf(e.d.rank.Profile().Delta(snap))
		return nil
	})
	return got
}

// TestRecvChargeTable pins what every receive shape charges, post to
// completion, on an unexpected 8-byte (3 for the derived type) OFI
// message: the contiguous exact receive, the three wildcards and the
// no-match receive, a derived type (which adds its 10+n/2 unpack), the
// three wildcards again on 4 VCIs, and the fold receive; and what a lent
// on-node IsendNoCopy charges at the call. A receive searches its
// communicator's lane alone, so every -4vci row charges what its
// one-lane twin does.
func TestRecvChargeTable(t *testing.T) {
	vec, _ := datatype.NewVector(3, 1, 2, datatype.Byte)
	if err := vec.Commit(); err != nil {
		t.Fatal(err)
	}
	sendWith := func(n int, flags core.OpFlags) func(e *env) error {
		return func(e *env) error {
			req, err := e.d.Isend(make([]byte, n), n, datatype.Byte, 1, 7, e.c, flags)
			if err == nil {
				req.Free()
			}
			return err
		}
	}
	irecv := func(n int, dt *datatype.Type, src, tag int, flags core.OpFlags) func(e *env) (*request.Request, error) {
		return func(e *env) (*request.Request, error) {
			return e.d.Irecv(make([]byte, 8), n, dt, src, tag, e.c, flags)
		}
	}
	cases := []struct {
		name string
		vcis int
		send func(e *env) error
		recv func(e *env) (*request.Request, error)
		want recvCharge
	}{
		{"irecv/exact", 1, sendWith(8, 0), irecv(8, datatype.Byte, 0, 7, 0), recvCharge{6, 47, 41, 106}},
		{"irecv/anysource", 1, sendWith(8, 0), irecv(8, datatype.Byte, core.AnySource, 7, 0), recvCharge{6, 47, 41, 102}},
		{"irecv/anytag", 1, sendWith(8, 0), irecv(8, datatype.Byte, 0, core.AnyTag, 0), recvCharge{6, 47, 41, 106}},
		{"irecv/anysource-anytag", 1, sendWith(8, 0), irecv(8, datatype.Byte, core.AnySource, core.AnyTag, 0), recvCharge{6, 47, 41, 102}},
		{"irecv/nomatch", 1, sendWith(8, core.FlagNoMatch), irecv(8, datatype.Byte, 0, 7, core.FlagNoMatch), recvCharge{6, 47, 37, 102}},
		{"irecv/derived", 1, sendWith(3, 0), irecv(1, vec, 0, 7, 0), recvCharge{6, 47, 52, 106}},
		{"irecv/anysource-4vci", 4, sendWith(8, 0), irecv(8, datatype.Byte, core.AnySource, 7, 0), recvCharge{6, 47, 41, 102}},
		{"irecv/anytag-4vci", 4, sendWith(8, 0), irecv(8, datatype.Byte, 0, core.AnyTag, 0), recvCharge{6, 47, 41, 106}},
		{"irecv/anysource-anytag-4vci", 4, sendWith(8, 0), irecv(8, datatype.Byte, core.AnySource, core.AnyTag, 0), recvCharge{6, 47, 41, 102}},
		{"irecvreduce", 1, sendWith(8, 0), func(e *env) (*request.Request, error) {
			return e.d.IrecvReduce(make([]byte, 8), 0, 7, e.c, func(dst, in []byte) {
				for i := range dst {
					dst[i] += in[i]
				}
			})
		}, recvCharge{6, 0, 38, 106}},
	}
	charged := map[string]recvCharge{}
	for _, c := range cases {
		got := recvCost(t, c.vcis, c.send, c.recv)
		if got != c.want {
			t.Errorf("%s: {call, redundant, mandatory, transport} = %v, want %v", c.name, got, c.want)
		}
		charged[c.name] = got
	}
	for name, got := range charged {
		if one, ok := strings.CutSuffix(name, "-4vci"); ok && got != charged[one] {
			t.Errorf("%s charges %v, its one-lane twin %s %v", name, got, one, charged[one])
		}
	}

	// IsendNoCopy: a 256-byte lent send to an on-node peer, above a
	// 64-byte handoff threshold, charged at the call.
	cfg := core.Default
	cfg.ShmEagerMax = 64
	var got recvCharge
	runWorld(t, 2, 2, fabric.OFI, cfg, func(e *env) error {
		const n = 256
		if e.c.Rank() == 1 {
			req, err := e.d.Irecv(make([]byte, n), n, datatype.Byte, 0, 7, e.c, 0)
			if err == nil {
				req.Wait()
			}
			return err
		}
		snap := e.d.rank.Profile().Snap()
		req, ok, err := e.d.IsendNoCopy(make([]byte, n), 1, 7, e.c)
		if err != nil || !ok {
			return fmt.Errorf("IsendNoCopy: ok %v, err %v", ok, err)
		}
		got = chargeOf(e.d.rank.Profile().Delta(snap))
		req.Wait()
		return nil
	})
	if want := (recvCharge{6, 0, 51, 150}); got != want {
		t.Errorf("isendnocopy: {call, redundant, mandatory, transport} = %v, want %v", got, want)
	}
}

// TestWildcardStaleReplica: an MPI_ANY_TAG receive on 4 VCIs completes
// and its receive box is recycled; nothing of it may linger to steal a
// later message. After the wildcard completes, eight exact receives on
// tags 0-7 must each get their own message, and the wildcard's buffer
// none of them.
func TestWildcardStaleReplica(t *testing.T) {
	const tags = 8
	cfg := core.Default
	cfg.VCIs = 4
	posted, exactPosted := make(chan struct{}), make(chan struct{})
	runWorld(t, 2, 1, fabric.OFI, cfg, func(e *env) error {
		if e.c.Rank() == 0 {
			<-posted
			if _, err := e.d.Isend([]byte{100}, 1, datatype.Byte, 1, 100, e.c, core.FlagNoReq); err != nil {
				return err
			}
			<-exactPosted
			for tag := 0; tag < tags; tag++ {
				if _, err := e.d.Isend([]byte{byte(tag)}, 1, datatype.Byte, 1, tag, e.c, core.FlagNoReq); err != nil {
					return err
				}
			}
			return nil
		}
		wild := []byte{0xff}
		req, err := e.d.Irecv(wild, 1, datatype.Byte, 0, core.AnyTag, e.c, 0)
		if err != nil {
			return err
		}
		close(posted)
		req.Wait()
		req.Free()
		if wild[0] != 100 {
			return fmt.Errorf("wildcard received %d, want 100", wild[0])
		}
		bufs := make([][]byte, tags)
		reqs := make([]*request.Request, tags)
		for tag := range bufs {
			bufs[tag] = []byte{0xff}
			if reqs[tag], err = e.d.Irecv(bufs[tag], 1, datatype.Byte, 0, tag, e.c, 0); err != nil {
				return err
			}
		}
		close(exactPosted)
		for tag, req := range reqs {
			req.Wait()
			if bufs[tag][0] != byte(tag) || req.Status.Tag != tag {
				return fmt.Errorf("tag %d receive got payload %d, status tag %d", tag, bufs[tag][0], req.Status.Tag)
			}
			req.Free()
		}
		if !bytes.Equal(wild, []byte{100}) {
			return fmt.Errorf("a later message landed in the completed wildcard's buffer: %d", wild[0])
		}
		return nil
	})
}

// TestRecvBoxSteadyStateAllocs: once warm, every receive shape posts
// through a recycled box and allocates nothing — the wildcards and the
// fold receive included, and a wildcard on a multi-VCI endpoint too.
// Each case consumes unexpected 1-byte OFI messages while the sender is
// parked, so the measuring rank is the only goroutine at work.
func TestRecvBoxSteadyStateAllocs(t *testing.T) {
	const warm, runs = 8, 100
	fold := func(dst, in []byte) { dst[0] += in[0] }
	cases := []struct {
		name string
		vcis int
		recv func(e *env, buf []byte) (*request.Request, error)
		want float64
	}{
		{"anysource", 1, func(e *env, buf []byte) (*request.Request, error) {
			return e.d.Irecv(buf, 1, datatype.Byte, core.AnySource, 0, e.c, 0)
		}, 0},
		{"anytag", 1, func(e *env, buf []byte) (*request.Request, error) {
			return e.d.Irecv(buf, 1, datatype.Byte, 0, core.AnyTag, e.c, 0)
		}, 0},
		{"irecvreduce", 1, func(e *env, buf []byte) (*request.Request, error) {
			return e.d.IrecvReduce(buf, 0, 0, e.c, fold)
		}, 0},
		{"anytag-4vci", 4, func(e *env, buf []byte) (*request.Request, error) {
			return e.d.Irecv(buf, 1, datatype.Byte, 0, core.AnyTag, e.c, 0)
		}, 0},
	}
	for _, c := range cases {
		cfg := core.Default
		cfg.VCIs = c.vcis
		sent := make(chan struct{})
		var allocs float64
		runWorld(t, 2, 1, fabric.OFI, cfg, func(e *env) error {
			buf := make([]byte, 1)
			if e.c.Rank() == 0 {
				for i := 0; i < warm+runs+1; i++ {
					if _, err := e.d.Isend(buf, 1, datatype.Byte, 1, 0, e.c, core.FlagNoReq); err != nil {
						return err
					}
				}
				close(sent)
				// Park until the measurement is over.
				req, err := e.d.Irecv(buf, 1, datatype.Byte, 1, 1, e.c, 0)
				if err == nil {
					req.Wait()
				}
				return err
			}
			<-sent
			recv := func() error {
				req, err := c.recv(e, buf)
				if err == nil {
					req.Wait()
					req.Free()
				}
				return err
			}
			for i := 0; i < warm; i++ {
				if err := recv(); err != nil {
					return err
				}
			}
			time.Sleep(20 * time.Millisecond) // let rank 0 park
			allocs = testing.AllocsPerRun(runs, func() {
				if err := recv(); err != nil {
					t.Error(err)
				}
			})
			_, err := e.d.Isend(buf, 1, datatype.Byte, 0, 1, e.c, core.FlagNoReq)
			return err
		})
		if allocs != c.want {
			t.Errorf("%s: a steady-state receive allocates %.1f objects, want %.0f", c.name, allocs, c.want)
		}
	}
}

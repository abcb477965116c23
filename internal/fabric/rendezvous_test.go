package fabric

import (
	"bytes"
	"strings"
	"testing"

	"gompi/internal/match"
)

// recordRel is a ViewReleaser that counts its releases.
type recordRel struct {
	n      int
	copied bool
}

func (r *recordRel) Release(copied bool) { r.n++; r.copied = copied }

// TestRendezvousLent pins TaggedSendVCI's releaser contract at every
// consume site: above the eager limit the payload is lent — a posted
// receive copies it once and releases inside the send, an unexpected
// arrival parks the sender's buffer (no staging copy) until a receive,
// a wildcard receive, a matched probe or a fold consumes it, and only
// then is it released, exactly once; at or below the limit the releaser
// is ignored and the payload captured as before.
func TestRendezvousLent(t *testing.T) {
	const big = 2 * 8192 // past OFI's eager limit
	bits := match.MakeBits(1, 0, 5)
	cases := []struct {
		name           string
		size           int
		posted         bool // receive posted before the send
		consume        func(ep *Endpoint, buf []byte) []byte
		staged, direct int64
		releases       int
		copied         bool
	}{
		{name: "posted", size: big, posted: true, staged: 0, direct: 1, releases: 1, copied: true},
		{name: "unexpected", size: big, staged: 0, direct: 1, releases: 1, copied: true},
		{name: "wildcard", size: big, staged: 0, direct: 1, releases: 1, copied: true,
			consume: func(ep *Endpoint, buf []byte) []byte {
				op := &RecvOp{Buf: buf}
				ep.PostRecv(op, match.MakeBits(1, 0, 0), match.RecvMask(true, true))
				waitRecv(ep, op)
				return buf[:op.N]
			}},
		{name: "mprobe", size: big, staged: 1, direct: 0, releases: 1, copied: true,
			consume: func(ep *Endpoint, buf []byte) []byte {
				_, _, data, _, ok := ep.MProbeVCI(bits, match.FullMask, ep.f.VCIForCtx(bits.Context()))
				if !ok {
					return nil
				}
				return data
			}},
		{name: "fold", size: big, staged: 0, direct: 0, releases: 1, copied: false,
			consume: func(ep *Endpoint, buf []byte) []byte {
				op := &RecvOp{Buf: buf, Fold: func(dst, src []byte) { copy(dst, src) }}
				ep.PostRecv(op, bits, match.FullMask)
				waitRecv(ep, op)
				return buf[:op.N]
			}},
		{name: "eager", size: 8192, staged: 1, direct: 1, releases: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := NewVCI(OFI, 2, 4)
			for i := 0; i < 2; i++ {
				f.Endpoint(i).Bind(testRank(OFI.Hz))
			}
			src, dst := f.Endpoint(0), f.Endpoint(1)
			data := make([]byte, tc.size)
			for i := range data {
				data[i] = byte(i*7 + 1)
			}
			want := append([]byte(nil), data...)
			buf := make([]byte, tc.size)
			consume := tc.consume
			if consume == nil {
				consume = func(ep *Endpoint, buf []byte) []byte {
					op := &RecvOp{Buf: buf}
					ep.PostRecv(op, bits, match.FullMask)
					waitRecv(ep, op)
					return buf[:op.N]
				}
			}
			var op *RecvOp
			if tc.posted {
				op = &RecvOp{Buf: buf}
				dst.PostRecv(op, bits, match.FullMask)
			}
			rel := &recordRel{}
			src.TaggedSendVCI(1, bits, data, f.VCIForCtx(bits.Context()), rel)
			var got []byte
			if tc.posted {
				waitRecv(dst, op)
				got = buf[:op.N]
			} else {
				if rel.n != 0 {
					t.Fatalf("released %d time(s) before any receive", rel.n)
				}
				got = consume(dst, buf)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("received %d bytes, payload differs", len(got))
			}
			if tc.name == "mprobe" && &got[0] == &data[0] {
				t.Error("matched probe returned the sender's lent buffer, not a private copy")
			}
			if rel.n != tc.releases || (rel.n > 0 && rel.copied != tc.copied) {
				t.Errorf("releases = %d (copied %v), want %d (copied %v)", rel.n, rel.copied, tc.releases, tc.copied)
			}
			snap := dst.SnapshotStats()
			if snap.CopiesStaged.Msgs != tc.staged || snap.CopiesDirect.Msgs != tc.direct {
				t.Errorf("copies staged/direct = %d/%d, want %d/%d",
					snap.CopiesStaged.Msgs, snap.CopiesDirect.Msgs, tc.staged, tc.direct)
			}
		})
	}
}

// TestWaitGraphLentRendezvous: an unexpected lent netmod view is
// printed with its size, and its sender waits on the receiver.
func TestWaitGraphLentRendezvous(t *testing.T) {
	f, _ := newTestFabric(t, OFI, 2)
	data := make([]byte, 3*8192)
	f.Endpoint(0).TaggedSendVCI(1, match.MakeBits(1, 0, 5), data, 0, &recordRel{})
	var out strings.Builder
	f.WriteWaitGraph(&out)
	for _, want := range []string{"[lent 24576 bytes]", "rank 0 waits on rank 1 [rendezvous]"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("wait graph lacks %q:\n%s", want, out.String())
		}
	}
}

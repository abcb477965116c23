package fabric

import (
	"testing"

	"gompi/internal/instr"
	"gompi/internal/match"
)

// matchCharge is what one receive-side operation charged its rank in
// transport cycles and added to its Stats.Match counters.
type matchCharge struct {
	cycles, bins, searches, binHits, wildHits int64
}

// chargeOf runs one receive-side operation — kind "post", "probe" or
// "mprobe" — on interface v of rank 1 of a fresh two-rank OFI fabric
// of nvci interfaces, against one buffered message on interface
// min(2, nvci-1) when hit, and returns what it charged and counted.
// anyTag receives MPI_ANY_TAG from the message's source instead of the
// exact triplet.
func chargeOf(kind string, nvci, v int, hit, anyTag bool) matchCharge {
	f := NewVCI(OFI, 2, nvci)
	f.Endpoint(0).Bind(testRank(OFI.Hz))
	m := testRank(OFI.Hz)
	ep := f.Endpoint(1)
	ep.Bind(m)
	if hit {
		f.Endpoint(0).TaggedSendVCI(1, match.MakeBits(1, 0, 5), []byte{1, 2, 3}, min(2, nvci-1), nil)
	}
	bits, mask := match.MakeBits(1, 0, 5), match.FullMask
	if anyTag {
		bits, mask = match.MakeBits(1, 0, 0), match.RecvMask(false, true)
	}
	before, cycles := ep.SnapshotStats().Match, m.Profile().Count(instr.Transport)
	switch kind {
	case "post":
		ep.PostRecvVCI(&RecvOp{Buf: make([]byte, 8)}, bits, mask, v)
	case "probe":
		ep.ProbeVCI(bits, mask, v)
	case "mprobe":
		ep.MProbeVCI(bits, mask, v)
	}
	after := ep.SnapshotStats().Match
	return matchCharge{
		cycles:   m.Profile().Count(instr.Transport) - cycles,
		bins:     after.BinOps - before.BinOps,
		searches: after.Searches - before.Searches,
		binHits:  after.BinHits - before.BinHits,
		wildHits: after.WildHits - before.WildHits,
	}
}

// TestMatchChargeTable pins what every receive-side matching operation
// charges and counts: {PostRecvVCI, ProbeVCI, MProbeVCI} × {one VCI of
// 1, one VCI of 4} × {hit, miss} × {exact, any-tag}. A post's cycles
// include RecvPost (40 on OFI); a bin op costs 4 and a search 2. Every
// row is also charged exactly what Stats.Match counts: RecvPost for a
// post plus the matching cost of the bin ops and searches its lane's
// engine counted, a post's insert included.
func TestMatchChargeTable(t *testing.T) {
	want := map[string]matchCharge{
		"post/1of1/hit/exact":     {46, 1, 1, 1, 0},
		"post/1of1/hit/anytag":    {46, 1, 1, 1, 0},
		"post/1of1/miss/exact":    {48, 2, 0, 0, 0},
		"post/1of1/miss/anytag":   {48, 2, 0, 0, 0},
		"post/1of4/hit/exact":     {46, 1, 1, 1, 0},
		"post/1of4/hit/anytag":    {46, 1, 1, 1, 0},
		"post/1of4/miss/exact":    {48, 2, 0, 0, 0},
		"post/1of4/miss/anytag":   {48, 2, 0, 0, 0},
		"probe/1of1/hit/exact":    {6, 1, 1, 1, 0},
		"probe/1of1/hit/anytag":   {6, 1, 1, 1, 0},
		"probe/1of1/miss/exact":   {4, 1, 0, 0, 0},
		"probe/1of1/miss/anytag":  {4, 1, 0, 0, 0},
		"probe/1of4/hit/exact":    {6, 1, 1, 1, 0},
		"probe/1of4/hit/anytag":   {6, 1, 1, 1, 0},
		"probe/1of4/miss/exact":   {4, 1, 0, 0, 0},
		"probe/1of4/miss/anytag":  {4, 1, 0, 0, 0},
		"mprobe/1of1/hit/exact":   {6, 1, 1, 1, 0},
		"mprobe/1of1/hit/anytag":  {6, 1, 1, 1, 0},
		"mprobe/1of1/miss/exact":  {4, 1, 0, 0, 0},
		"mprobe/1of1/miss/anytag": {4, 1, 0, 0, 0},
		"mprobe/1of4/hit/exact":   {6, 1, 1, 1, 0},
		"mprobe/1of4/hit/anytag":  {6, 1, 1, 1, 0},
		"mprobe/1of4/miss/exact":  {4, 1, 0, 0, 0},
		"mprobe/1of4/miss/anytag": {4, 1, 0, 0, 0},
	}
	lanes := []struct {
		name    string
		nvci, v int
	}{{"1of1", 1, 0}, {"1of4", 4, 2}}
	for _, kind := range []string{"post", "probe", "mprobe"} {
		for _, l := range lanes {
			for _, hit := range []bool{true, false} {
				for _, anyTag := range []bool{false, true} {
					name := kind + "/" + l.name + map[bool]string{true: "/hit", false: "/miss"}[hit] +
						map[bool]string{false: "/exact", true: "/anytag"}[anyTag]
					got := chargeOf(kind, l.nvci, l.v, hit, anyTag)
					if got != want[name] {
						t.Errorf("%s: {cycles, bins, searches, binHits, wildHits} = %v, want %v", name, got, want[name])
					}
					counted := OFI.matchCost(got.bins, got.searches)
					if kind == "post" {
						counted += OFI.RecvPost
					}
					if got.cycles != counted {
						t.Errorf("%s: charged %d cycles, Stats.Match counts %d bin ops and %d searches (%d cycles with the post)",
							name, got.cycles, got.bins, got.searches, counted)
					}
				}
			}
		}
	}
}

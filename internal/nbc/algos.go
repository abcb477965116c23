package nbc

import (
	"fmt"
	"slices"

	"gompi/internal/coll"
	"gompi/internal/datatype"
	"gompi/internal/metrics"
)

// lowbit returns the lowest set bit of v, or 0 for v == 0.
func lowbit(v int) int { return v & -v }

// nextPow2 returns the smallest power of two >= v.
func nextPow2(v int) int {
	p := 1
	for p < v {
		p *= 2
	}
	return p
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// topo is the node structure the two-level compilers exchange through.
type topo struct {
	leader  int   // my node's leader rank
	locals  []int // other ranks on my node, excluding the leader and me
	leaders []int // one leader per node, ascending node id
	myIdx   int   // my leader's index in leaders (-1 when I'm no leader)
}

// computeTopo derives the communicator's node structure. Each node's
// leader is its lowest rank, except that when prefer >= 0 (a broadcast
// root) the preferred rank leads its own node so the root's data never
// takes an extra intra-node hop. The transport's cache answers repeats;
// a block mapping is derived arithmetically, any other by a scan.
func computeTopo(t Transport, prefer int) topo {
	if v, ok := t.LoadTopo(prefer); ok {
		return v.(topo)
	}
	var tp topo
	if rpn, ok := t.RanksPerNodeBlock(); ok && rpn > 0 {
		tp = blockTopo(t, prefer, rpn)
	} else {
		tp = scanTopo(t, prefer)
	}
	t.StoreTopo(prefer, tp)
	return tp
}

// blockTopo is computeTopo for the contiguous block mapping
// node(r) = r/rpn: every piece of the structure is arithmetic, so the
// cost is O(nodes) for the leader list plus O(rpn) for the local list.
func blockTopo(t Transport, prefer, rpn int) topo {
	size, me := t.Size(), t.Rank()
	nnodes := (size + rpn - 1) / rpn
	leaderOf := func(nd int) int {
		if prefer >= 0 && prefer/rpn == nd {
			return prefer
		}
		return nd * rpn
	}
	var tp topo
	myNode := me / rpn
	tp.leader = leaderOf(myNode)
	tp.leaders = make([]int, nnodes)
	for i := range tp.leaders {
		tp.leaders[i] = leaderOf(i)
	}
	tp.myIdx = -1
	if me == tp.leader {
		tp.myIdx = myNode
	}
	lo, hi := myNode*rpn, (myNode+1)*rpn
	if hi > size {
		hi = size
	}
	for r := lo; r < hi; r++ {
		if r != me && r != tp.leader {
			tp.locals = append(tp.locals, r)
		}
	}
	return tp
}

// scanTopo is the general derivation over an arbitrary rank→node
// mapping.
func scanTopo(t Transport, prefer int) topo {
	size := t.Size()
	leaderOf := map[int]int{}
	var nodes []int
	for r := 0; r < size; r++ {
		nd := t.Node(r)
		if cur, ok := leaderOf[nd]; !ok {
			leaderOf[nd] = r
			nodes = append(nodes, nd)
		} else if r < cur {
			leaderOf[nd] = r
		}
	}
	if prefer >= 0 {
		leaderOf[t.Node(prefer)] = prefer
	}
	var tp topo
	myNode := t.Node(t.Rank())
	tp.leader = leaderOf[myNode]
	tp.myIdx = -1
	// Node ids ascend with rank order on the world mapping; sort keeps
	// arbitrary subcommunicator mappings deterministic.
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && nodes[j] < nodes[j-1]; j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
	for i, nd := range nodes {
		tp.leaders = append(tp.leaders, leaderOf[nd])
		if nd == myNode {
			tp.myIdx = i
		}
	}
	if t.Rank() != tp.leader {
		tp.myIdx = -1
	}
	for r := 0; r < size; r++ {
		if r != t.Rank() && r != tp.leader && t.Node(r) == myNode {
			tp.locals = append(tp.locals, r)
		}
	}
	return tp
}

// twoLevel reports whether the topology rewards hierarchical
// algorithms: more than one node, and at least one node hosting more
// than one rank (so the intra-node phase rides the shm path), i.e.
// more than one node but fewer nodes than ranks. A block mapping
// answers arithmetically; any other takes one scan.
func twoLevel(t Transport) bool {
	size := t.Size()
	if rpn, ok := t.RanksPerNodeBlock(); ok {
		return rpn > 1 && size > rpn
	}
	nodes := map[int]bool{}
	for r := 0; r < size; r++ {
		nodes[t.Node(r)] = true
	}
	return len(nodes) > 1 && len(nodes) < size
}

// Barrier compiles the dissemination barrier into s: ceil(log2 P)
// rounds of one send + one receive at doubling distance.
func Barrier(s *Schedule, t Transport, tag int) {
	s.Begin(t, tag, metrics.CollBarrierDissem, 0)
	rank, size := t.Rank(), t.Size()
	token := s.scratch(2)
	for dist := 1; dist < size; dist *= 2 {
		s.send(token[:1], (rank+dist)%size)
		s.recv(token[1:], (rank-dist+size)%size)
		s.endRound()
	}
}

// checkRoot validates a rooted collective's root argument.
func checkRoot(t Transport, what string, root int) error {
	if root < 0 || root >= t.Size() {
		return fmt.Errorf("nbc: %s root %d outside [0,%d)", what, root, t.Size())
	}
	return nil
}

// Bcast compiles a broadcast of root's buf with the algorithm bcastAlgo
// picks under f.
func Bcast(s *Schedule, t Transport, tag int, buf []byte, root int, f Force) error {
	if err := checkRoot(t, "bcast", root); err != nil {
		return err
	}
	s.Begin(t, tag, bcastAlgo(t, len(buf), f), len(buf))
	if t.Size() == 1 {
		return nil
	}
	switch s.Algo {
	case metrics.CollBcastScatterAllgather:
		bcastScatterAllgather(s, buf, root)
	case metrics.CollBcastTwoLevel:
		bcastTwoLevel(s, buf, root)
	default:
		bcastBinomial(s, buf, root)
	}
	return nil
}

// bcastBinomial emits the binomial tree: one receive round from the
// parent (none on the root), then one round sending to every child.
func bcastBinomial(s *Schedule, buf []byte, root int) {
	rank, size := s.t.Rank(), s.t.Size()
	vrank := (rank - root + size) % size
	if vrank != 0 {
		s.recv(buf, (vrank&(vrank-1)+root)%size)
		s.endRound()
	}
	limit := lowbit(vrank)
	if vrank == 0 {
		limit = nextPow2(size)
	}
	for m := limit / 2; m >= 1; m /= 2 {
		if child := vrank + m; child < size {
			s.send(buf, (child+root)%size)
		}
	}
	s.endRound()
}

// bcastScatterAllgather emits the long-message broadcast: the root
// scatters ceil(n/P)-byte blocks directly, then a ring allgather
// reassembles the full buffer everywhere — each rank moves ~2n bytes
// instead of the binomial's n*log P.
func bcastScatterAllgather(s *Schedule, buf []byte, root int) {
	rank, size := s.t.Rank(), s.t.Size()
	n := len(buf)
	bs := (n + size - 1) / size
	block := func(i int) []byte {
		return buf[min(i*bs, n):min((i+1)*bs, n)]
	}
	if rank == root {
		for r := 0; r < size; r++ {
			if r != root {
				s.send(block(r), r)
			}
		}
	} else {
		s.recv(block(rank), root)
	}
	s.endRound()
	right := (rank + 1) % size
	left := (rank - 1 + size) % size
	for st := 0; st < size-1; st++ {
		s.send(block((rank-st+size)%size), right)
		s.recv(block((rank-st-1+size)%size), left)
		s.endRound()
	}
}

// bcastTwoLevel emits the hierarchical broadcast: the root sends once
// to each other node's leader over the network, and leaders fan out to
// their node-local ranks over shared memory — (#nodes-1)*n net bytes
// total, independent of ranks-per-node.
func bcastTwoLevel(s *Schedule, buf []byte, root int) {
	tp := computeTopo(s.t, root)
	rank := s.t.Rank()
	if rank != root && rank != tp.leader {
		s.recv(buf, tp.leader)
		s.endRound()
		return
	}
	if rank == root {
		for _, l := range tp.leaders {
			if l != root {
				s.send(buf, l)
			}
		}
	} else {
		s.recv(buf, root)
		s.endRound()
	}
	// The intra-node fan-out lends buf zero-copy when the transport
	// offers handoff: buf is read-only for the round, so one lent view
	// can serve every local receiver.
	for _, r := range tp.locals {
		s.sendNoCopy(buf, r)
	}
	s.endRound()
}

// Reduce compiles a reduction to root with the algorithm reduceAlgo
// picks under f. recv is consumed only on the root.
func Reduce(s *Schedule, t Transport, tag int, op coll.Op, elem *datatype.Type, sendBuf, recv []byte, root int, f Force) error {
	if err := checkRoot(t, "reduce", root); err != nil {
		return err
	}
	s.Begin(t, tag, reduceAlgo(op, f), len(sendBuf))
	s.op, s.elem = op, elem
	if t.Size() == 1 {
		s.init(recv, sendBuf)
		return nil
	}
	reduceTo(s, s.Algo, sendBuf, recv, root)
	return nil
}

// reduceTo emits the reduction to root that algo, a reduceAlgo pick,
// names.
func reduceTo(s *Schedule, algo int, sendBuf, recv []byte, root int) {
	if algo == metrics.CollReduceChain {
		reduceChain(s, sendBuf, recv, root)
	} else {
		reduceBinomial(s, sendBuf, recv, root)
	}
}

// reduceBinomial folds partials up the binomial tree (commutative ops
// only: children fold in tree order). The working accumulator is the
// root's recv buffer, or a private copy elsewhere, snapshotted at
// compile time as MPI's nonblocking semantics permit.
func reduceBinomial(s *Schedule, sendBuf, recv []byte, root int) {
	rank, size := s.t.Rank(), s.t.Size()
	vrank := (rank - root + size) % size
	var acc []byte
	if rank == root {
		acc = recv[:len(sendBuf)]
	} else {
		acc = s.scratch(len(sendBuf))
	}
	s.init(acc, sendBuf)
	var tmp []byte
	for m := 1; m < size; m *= 2 {
		if vrank&m != 0 {
			s.send(acc, (vrank-m+root)%size)
			s.endRound()
			return // leaf done
		}
		if childV := vrank + m; childV < size {
			if tmp == nil {
				tmp = s.scratch(len(sendBuf))
			}
			s.recvFold(tmp, acc, (childV+root)%size)
			s.endRound()
		}
	}
}

// reduceChain folds contributions in strict rank order (the
// non-commutative algorithm): rank P-1 starts, each rank computes
// v_r OP partial and passes it down, rank 0 forwards the result to
// root.
func reduceChain(s *Schedule, sendBuf, recv []byte, root int) {
	rank, size := s.t.Rank(), s.t.Size()
	if rank == size-1 {
		s.send(sendBuf, rank-1)
		s.endRound()
	} else {
		tmp := s.scratch(len(sendBuf))
		s.recv(tmp, rank+1)
		s.reduce(tmp, sendBuf)
		s.endRound()
		switch {
		case rank > 0:
			s.send(tmp, rank-1)
		case root == 0:
			s.copy(recv[:len(sendBuf)], tmp)
		default:
			s.send(tmp, root)
		}
		s.endRound()
	}
	if rank == root && root != 0 {
		s.recv(recv[:len(sendBuf)], 0)
		s.endRound()
	}
}

// Allreduce compiles an all-reduce of whole elem elements with the
// algorithm allreduceAlgo picks under f.
func Allreduce(s *Schedule, t Transport, tag int, op coll.Op, elem *datatype.Type, sendBuf, recv []byte, f Force) {
	s.Begin(t, tag, allreduceAlgo(t, op, elem, len(sendBuf), f), len(sendBuf))
	s.op, s.elem = op, elem
	if t.Size() == 1 {
		s.init(recv, sendBuf)
		return
	}
	switch s.Algo {
	case metrics.CollAllreduceRecDoubling:
		allreduceRecDoubling(s, sendBuf, recv)
	case metrics.CollAllreduceRedScatGather:
		allreduceRSAG(s, sendBuf, recv)
	case metrics.CollAllreduceTwoLevel:
		allreduceTwoLevel(s, sendBuf, recv)
	case metrics.CollAllreduceTwoLevelZC:
		allreduceTwoLevelZC(s, sendBuf, recv)
	default:
		allreduceReduceBcast(s, sendBuf, recv)
	}
}

// allreduceRecDoubling is the classic log-P exchange for power-of-two
// worlds: each round swaps full vectors with rank^m and folds.
func allreduceRecDoubling(s *Schedule, sendBuf, recv []byte) {
	rank, size := s.t.Rank(), s.t.Size()
	res := recv[:len(sendBuf)]
	s.init(res, sendBuf)
	tmp := s.scratch(len(sendBuf))
	for m := 1; m < size; m *= 2 {
		s.send(res, rank^m)
		s.recvFold(tmp, res, rank^m)
		s.endRound()
	}
}

// allreduceRSAG is the Rabenseifner composition: recursive-halving
// reduce-scatter followed by a recursive-doubling allgather — each
// rank moves ~2n bytes instead of recursive doubling's n*log P, the
// long-message winner. Requires a power-of-two size and an element
// count divisible by it (allreduceAlgo checks both).
func allreduceRSAG(s *Schedule, sendBuf, recv []byte) {
	rank, size := s.t.Rank(), s.t.Size()
	es := s.elem.Size()
	res := recv[:len(sendBuf)]
	s.init(res, sendBuf)
	total := len(res) / es
	lo, cnt := 0, total
	tmp := s.scratch((total / 2) * es)
	for m := size / 2; m >= 1; m /= 2 {
		peer := rank ^ m
		half := cnt / 2
		var sendSeg, target []byte
		if rank&m == 0 {
			sendSeg = res[(lo+half)*es : (lo+cnt)*es]
			target = res[lo*es : (lo+half)*es]
		} else {
			sendSeg = res[lo*es : (lo+half)*es]
			target = res[(lo+half)*es : (lo+cnt)*es]
		}
		rbuf := tmp[:half*es]
		s.send(sendSeg, peer)
		s.recvFold(rbuf, target, peer)
		s.endRound()
		if rank&m != 0 {
			lo += half
		}
		cnt = half
	}
	// Allgather retrace: mask m mirrors the reduce-scatter step that
	// split a 2*cnt block in half. The rank that kept the lower half
	// (rank&m == 0) fetches the upper from its peer, and vice versa —
	// computed from lo directly, since blocks are only size-aligned in
	// elements when the per-rank count is a power of two.
	for m := 1; m < size; m *= 2 {
		peer := rank ^ m
		peerLo := lo - cnt
		if rank&m == 0 {
			peerLo = lo + cnt
		}
		s.send(res[lo*es:(lo+cnt)*es], peer)
		s.recv(res[peerLo*es:(peerLo+cnt)*es], peer)
		s.endRound()
		if peerLo < lo {
			lo = peerLo
		}
		cnt *= 2
	}
}

// allreduceReduceBcast composes the rank-ordered (non-commutative) or
// binomial reduce to rank 0 with a binomial broadcast — the general
// fallback for non-power-of-two worlds. Same-tag composition is safe:
// both sides issue their rounds in the same global order, and no rank
// both sends reduce traffic and bcast traffic to the same peer.
func allreduceReduceBcast(s *Schedule, sendBuf, recv []byte) {
	res := recv[:len(sendBuf)]
	reduceTo(s, reduceAlgo(s.op, ForceAuto), sendBuf, res, 0)
	bcastBinomial(s, res, 0)
}

// allreduceTwoLevel is the hierarchical algorithm: node-local ranks
// send their vectors to the node leader over shm, leaders reduce and
// exchange among themselves over the network (recursive doubling when
// the leader count is a power of two, gather+bcast through the first
// leader otherwise), and leaders broadcast the result back intra-node.
// Only the leader exchange crosses nodes: 2n net bytes on two nodes
// versus flat recursive doubling's 4n on the 4-rank reference layout.
func allreduceTwoLevel(s *Schedule, sendBuf, recv []byte) {
	tp := computeTopo(s.t, -1)
	rank := s.t.Rank()
	n := len(sendBuf)
	res := recv[:n]
	if rank != tp.leader {
		s.send(sendBuf, tp.leader)
		s.endRound()
		s.recv(res, tp.leader)
		s.endRound()
		return
	}
	s.init(res, sendBuf)
	// Intra-node gather-reduce: one round, every local contribution.
	for _, r := range tp.locals {
		s.recvFold(s.scratch(n), res, r)
	}
	s.endRound()
	allreduceLeaderExchange(s, tp, res, n)
	// Intra-node broadcast of the result.
	for _, r := range tp.locals {
		s.send(res, r)
	}
	s.endRound()
}

// allreduceLeaderExchange emits the inter-node phase shared by the
// two-level allreduce variants: leaders exchange and fold their
// node-reduced vectors (recursive doubling when the leader count is a
// power of two, gather+bcast through the first leader otherwise).
// Non-leaders emit nothing.
func allreduceLeaderExchange(s *Schedule, tp topo, res []byte, n int) {
	if s.t.Rank() != tp.leader {
		return
	}
	L := len(tp.leaders)
	if L <= 1 {
		return
	}
	if isPow2(L) {
		tmp := s.scratch(n)
		for m := 1; m < L; m *= 2 {
			peer := tp.leaders[tp.myIdx^m]
			s.send(res, peer)
			s.recvFold(tmp, res, peer)
			s.endRound()
		}
	} else if tp.myIdx == 0 {
		for _, l := range tp.leaders[1:] {
			s.recvFold(s.scratch(n), res, l)
		}
		s.endRound()
		for _, l := range tp.leaders[1:] {
			s.send(res, l)
		}
		s.endRound()
	} else {
		s.send(res, tp.leaders[0])
		s.endRound()
		s.recv(res, tp.leaders[0])
		s.endRound()
	}
}

// allreduceTwoLevelZC is the zero-copy two-level allreduce for large
// payloads on handoff-capable transports. The intra-node phase is an
// in-place reduce-scatter over lent views: the payload is chunked
// element-aligned across the node's members, each member folds every
// peer's lent chunk directly into its slice of the result — no staging
// copies, no scratch vectors — then the node leader collects the
// reduced chunks, leaders run the usual inter-node exchange, and the
// result fans back out as one lent view per local rank. Compared to
// allreduceTwoLevel the leader folds k chunks of n/k bytes instead of
// k full vectors, and the k scratch buffers disappear.
func allreduceTwoLevelZC(s *Schedule, sendBuf, recv []byte) {
	tp := computeTopo(s.t, -1)
	rank := s.t.Rank()
	n := len(sendBuf)
	res := recv[:n]

	// My node's member list, ascending — identical on every member, so
	// chunk ownership agrees without communication.
	members := append(append(make([]int, 0, len(tp.locals)+2), tp.leader), tp.locals...)
	if rank != tp.leader {
		members = append(members, rank)
	}
	slices.Sort(members)
	myIdx := slices.Index(members, rank)
	k := len(members)
	es := s.elem.Size()
	total := n / es
	// chunk returns the byte range of the result owned by member j.
	chunk := func(j int) (int, int) {
		base, rem := total/k, total%k
		lo := j*base + min(j, rem)
		cnt := base
		if j < rem {
			cnt++
		}
		return lo * es, (lo + cnt) * es
	}

	// Round A — intra-node reduce-scatter in place. I seed my chunk
	// from my own contribution, lend every other member its chunk of
	// my sendBuf, and fold their lent chunks into mine as they land.
	mylo, myhi := chunk(myIdx)
	s.init(res[mylo:myhi], sendBuf[mylo:myhi])
	if myhi > mylo {
		for _, m := range members {
			if m != rank {
				s.recvReduce(res[mylo:myhi], m)
			}
		}
	}
	for j, m := range members {
		if lo, hi := chunk(j); m != rank && hi > lo {
			s.sendNoCopy(sendBuf[lo:hi], m)
		}
	}
	s.endRound()

	// Round B — leader collects the reduced chunks.
	if rank == tp.leader {
		for j, m := range members {
			if lo, hi := chunk(j); m != rank && hi > lo {
				s.recv(res[lo:hi], m)
			}
		}
	} else if myhi > mylo {
		s.sendNoCopy(res[mylo:myhi], tp.leader)
	}
	s.endRound()

	// Round C — the usual inter-node leader exchange.
	allreduceLeaderExchange(s, tp, res, n)

	// Round D — result fans back out, one lent view serving every
	// local receiver.
	if rank == tp.leader {
		for _, r := range tp.locals {
			s.sendNoCopy(res, r)
		}
	} else {
		s.recv(res, tp.leader)
	}
	s.endRound()
}

// checkTable validates a v-collective's counts/displacements table
// against the communicator size and the buffer it indexes.
func checkTable(t Transport, what string, counts, displs []int, buf []byte) error {
	if len(counts) != t.Size() || len(displs) != t.Size() {
		return fmt.Errorf("nbc: %s counts/displs length %d/%d for %d ranks", what, len(counts), len(displs), t.Size())
	}
	for r, n := range counts {
		if n < 0 || displs[r] < 0 || displs[r]+n > len(buf) {
			return fmt.Errorf("nbc: %s block %d [%d,+%d) outside buffer of %d", what, r, displs[r], n, len(buf))
		}
	}
	return nil
}

// Gather compiles the gather of equal-size blocks to root (linear:
// every rank sends to root, which posts all its receives in one round).
// recv is consumed only on the root.
func Gather(s *Schedule, t Transport, tag int, sendBuf, recv []byte, root int) error {
	if err := checkRoot(t, "gather", root); err != nil {
		return err
	}
	bs := len(sendBuf)
	if t.Rank() == root && len(recv) < bs*t.Size() {
		return fmt.Errorf("nbc: gather recv buffer %d < %d", len(recv), bs*t.Size())
	}
	s.Begin(t, tag, metrics.CollGatherLinear, bs)
	gatherLinear(s, sendBuf, root, func(r int) []byte { return recv[r*bs : (r+1)*bs] })
	return nil
}

// Gatherv is Gather over a counts/displacements table: counts[r] bytes
// from rank r land at displs[r] of recv. The table and recv are
// significant only on the root; non-roots send len(sendBuf) bytes.
func Gatherv(s *Schedule, t Transport, tag int, sendBuf, recv []byte, counts, displs []int, root int) error {
	if err := checkRoot(t, "gatherv", root); err != nil {
		return err
	}
	if t.Rank() == root {
		if err := checkTable(t, "gatherv", counts, displs, recv); err != nil {
			return err
		}
	}
	s.Begin(t, tag, metrics.CollGathervLinear, len(sendBuf))
	gatherLinear(s, sendBuf, root, func(r int) []byte { return recv[displs[r] : displs[r]+counts[r]] })
	return nil
}

// gatherLinear emits the one gather round; block(r) is rank r's slot
// in the root's buffer (called on the root only).
func gatherLinear(s *Schedule, mine []byte, root int, block func(r int) []byte) {
	rank, size := s.t.Rank(), s.t.Size()
	if rank != root {
		s.send(mine, root)
	} else {
		for r := 0; r < size; r++ {
			if r == rank {
				s.copy(block(r), mine)
			} else {
				s.recv(block(r), r)
			}
		}
	}
	s.endRound()
}

// Scatter compiles the scatter of root's equal-size blocks (linear: one
// round of P-1 sends). sendBuf is consumed only on the root.
func Scatter(s *Schedule, t Transport, tag int, sendBuf, recv []byte, root int) error {
	if err := checkRoot(t, "scatter", root); err != nil {
		return err
	}
	bs := len(recv)
	if t.Rank() == root && len(sendBuf) < bs*t.Size() {
		return fmt.Errorf("nbc: scatter send buffer %d < %d", len(sendBuf), bs*t.Size())
	}
	s.Begin(t, tag, metrics.CollScatterLinear, bs)
	scatterLinear(s, recv, root, func(r int) []byte { return sendBuf[r*bs : (r+1)*bs] })
	return nil
}

// Scatterv is Scatter over a counts/displacements table: rank r
// receives the counts[r] bytes at displs[r] of sendBuf into recv, whose
// length must be its count. The table and sendBuf are significant only
// on the root.
func Scatterv(s *Schedule, t Transport, tag int, sendBuf []byte, counts, displs []int, recv []byte, root int) error {
	if err := checkRoot(t, "scatterv", root); err != nil {
		return err
	}
	if t.Rank() == root {
		if err := checkTable(t, "scatterv", counts, displs, sendBuf); err != nil {
			return err
		}
	}
	s.Begin(t, tag, metrics.CollScattervLinear, len(recv))
	scatterLinear(s, recv, root, func(r int) []byte { return sendBuf[displs[r] : displs[r]+counts[r]] })
	return nil
}

// scatterLinear emits the one scatter round; block(r) is rank r's slot
// in the root's buffer (called on the root only). The root's own block
// is a local step of the round rather than a compile-time seed, so the
// round composes after a reduction into the same buffer.
func scatterLinear(s *Schedule, mine []byte, root int, block func(r int) []byte) {
	rank, size := s.t.Rank(), s.t.Size()
	if rank != root {
		s.recv(mine, root)
	} else {
		for r := 0; r < size; r++ {
			if r == rank {
				s.copy(mine, block(r))
			} else {
				s.send(block(r), r)
			}
		}
	}
	s.endRound()
}

// ReduceScatterBlock compiles reduce-to-rank-0 (binomial, or the chain
// for non-commutative ops) followed by a linear scatter of the equal
// blocks: rank r ends with block r of the reduction in recv.
func ReduceScatterBlock(s *Schedule, t Transport, tag int, op coll.Op, elem *datatype.Type, sendBuf, recv []byte) error {
	rank, size := t.Rank(), t.Size()
	if len(sendBuf)%size != 0 {
		return fmt.Errorf("nbc: reduce_scatter send buffer %d not divisible by %d", len(sendBuf), size)
	}
	bs := len(sendBuf) / size
	if len(recv) < bs {
		return fmt.Errorf("nbc: reduce_scatter recv buffer %d < %d", len(recv), bs)
	}
	s.Begin(t, tag, metrics.CollRedScatBlock, len(sendBuf))
	s.op, s.elem = op, elem
	var full []byte
	if rank == 0 {
		full = s.scratch(len(sendBuf))
	}
	if size == 1 {
		s.init(full, sendBuf)
	} else {
		reduceTo(s, reduceAlgo(op, ForceAuto), sendBuf, full, 0)
	}
	scatterLinear(s, recv[:bs], 0, func(r int) []byte { return full[r*bs : (r+1)*bs] })
	return nil
}

// Allgather compiles an allgather with the algorithm allgatherAlgo
// picks under f.
func Allgather(s *Schedule, t Transport, tag int, sendBuf, recv []byte, f Force) error {
	rank, size := t.Rank(), t.Size()
	bs := len(sendBuf)
	if len(recv) < bs*size {
		return fmt.Errorf("nbc: allgather recv buffer %d < %d", len(recv), bs*size)
	}
	s.Begin(t, tag, allgatherAlgo(bs, f), bs)
	s.init(recv[rank*bs:(rank+1)*bs], sendBuf)
	if size == 1 {
		return nil
	}
	if s.Algo == metrics.CollAllgatherBruck {
		allgatherBruck(s, bs, recv)
	} else {
		allgatherRing(s, func(r int) []byte { return recv[r*bs : (r+1)*bs] })
	}
	return nil
}

// Allgatherv is the ring allgather over a counts/displacements table,
// which every rank supplies identically.
func Allgatherv(s *Schedule, t Transport, tag int, sendBuf, recv []byte, counts, displs []int) error {
	if err := checkTable(t, "allgatherv", counts, displs, recv); err != nil {
		return err
	}
	rank := t.Rank()
	if len(sendBuf) != counts[rank] {
		return fmt.Errorf("nbc: allgatherv rank %d contributes %d bytes, counts say %d", rank, len(sendBuf), counts[rank])
	}
	s.Begin(t, tag, metrics.CollAllgathervRing, len(sendBuf))
	block := func(r int) []byte { return recv[displs[r] : displs[r]+counts[r]] }
	s.init(block(rank), sendBuf)
	allgatherRing(s, block)
	return nil
}

// allgatherRing passes the newest block around the ring: P-1 rounds,
// each one send right + one receive left. block(r) is rank r's slot in
// the gathered buffer.
func allgatherRing(s *Schedule, block func(r int) []byte) {
	rank, size := s.t.Rank(), s.t.Size()
	right := (rank + 1) % size
	left := (rank - 1 + size) % size
	for st := 0; st < size-1; st++ {
		s.send(block((rank-st+size)%size), right)
		s.recv(block((rank-st-1+size)%size), left)
		s.endRound()
	}
}

// allgatherBruck doubles the gathered prefix each round in a rotated
// temporary, then unrotates locally in a final round.
func allgatherBruck(s *Schedule, bs int, recv []byte) {
	rank, size := s.t.Rank(), s.t.Size()
	tmp := s.scratch(bs * size)
	s.init(tmp[:bs], recv[rank*bs:(rank+1)*bs])
	have := 1
	for m := 1; m < size; m *= 2 {
		n := min(have, size-have)
		s.send(tmp[:n*bs], (rank-m+size)%size)
		s.recv(tmp[have*bs:(have+n)*bs], (rank+m)%size)
		s.endRound()
		have += n
	}
	for i := 0; i < size; i++ {
		dst := (rank + i) % size
		s.copy(recv[dst*bs:(dst+1)*bs], tmp[i*bs:(i+1)*bs])
	}
	s.endRound()
}

// Alltoall compiles an all-to-all exchange with the algorithm
// alltoallAlgo picks under f.
func Alltoall(s *Schedule, t Transport, tag int, sendBuf, recv []byte, f Force) error {
	rank, size := t.Rank(), t.Size()
	if size == 0 || len(sendBuf)%size != 0 {
		return fmt.Errorf("nbc: alltoall send buffer %d not divisible by %d", len(sendBuf), size)
	}
	bs := len(sendBuf) / size
	if len(recv) < bs*size {
		return fmt.Errorf("nbc: alltoall recv buffer %d < %d", len(recv), bs*size)
	}
	s.Begin(t, tag, alltoallAlgo(t, bs, f), bs*size)
	s.init(recv[rank*bs:(rank+1)*bs], sendBuf[rank*bs:(rank+1)*bs])
	if size == 1 {
		return nil
	}
	if s.Algo == metrics.CollAlltoallPosted {
		for off := 1; off < size; off++ {
			peer := (rank + off) % size
			s.send(sendBuf[peer*bs:(peer+1)*bs], peer)
		}
		for off := 1; off < size; off++ {
			peer := (rank - off + size) % size
			s.recv(recv[peer*bs:(peer+1)*bs], peer)
		}
		s.endRound()
		return nil
	}
	for st := 1; st < size; st++ {
		// XOR pairing is mutual on power-of-two sizes; otherwise rotate:
		// send to rank+st, receive from rank-st.
		to, from := rank^st, rank^st
		if !isPow2(size) {
			to, from = (rank+st)%size, (rank-st+size)%size
		}
		s.send(sendBuf[to*bs:(to+1)*bs], to)
		s.recv(recv[from*bs:(from+1)*bs], from)
		s.endRound()
	}
	return nil
}

// Scan compiles the inclusive prefix reduction (linear chain): rank r
// ends with v_0 OP ... OP v_r in recv, folded in rank order.
func Scan(s *Schedule, t Transport, tag int, op coll.Op, elem *datatype.Type, sendBuf, recv []byte) {
	s.Begin(t, tag, metrics.CollScanChain, len(sendBuf))
	s.op, s.elem = op, elem
	rank, size := t.Rank(), t.Size()
	res := recv[:len(sendBuf)]
	s.init(res, sendBuf)
	if rank > 0 {
		prefix := s.scratch(len(sendBuf))
		s.recvFold(prefix, res, rank-1) // res = prefix OP mine
		s.endRound()
	}
	if rank < size-1 {
		s.send(res, rank+1)
		s.endRound()
	}
}

// Exscan compiles the exclusive prefix reduction (linear chain): rank r
// ends with v_0 OP ... OP v_{r-1} in recv; rank 0's recv is untouched.
// The exclusive prefix lands directly in recv and the running inclusive
// prefix travels on in a private vector.
func Exscan(s *Schedule, t Transport, tag int, op coll.Op, elem *datatype.Type, sendBuf, recv []byte) {
	s.Begin(t, tag, metrics.CollExscanChain, len(sendBuf))
	s.op, s.elem = op, elem
	rank, size := t.Rank(), t.Size()
	running := sendBuf
	if rank > 0 {
		res := recv[:len(sendBuf)]
		if rank < size-1 {
			running = s.scratch(len(sendBuf))
			s.init(running, sendBuf)
			s.recvFold(res, running, rank-1) // running = prefix OP mine
		} else {
			s.recv(res, rank-1)
		}
		s.endRound()
	}
	if rank < size-1 {
		s.send(running, rank+1)
		s.endRound()
	}
}

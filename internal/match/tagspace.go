package match

// Reserved tag ranges of the collective context. The library's
// machinery multiplexes several tag consumers onto each communicator's
// collective context; the ranges below keep them disjoint so traffic of
// one subsystem can never match another's, and so diagnosis tooling can
// name the subsystem a stuck receive belongs to from its tag alone.
//
// Layout (all on the collective context; user pt2pt tags live on the
// point-to-point context and are unconstrained up to MaxTag):
//
//	700..704                     RMA window tokens (PSCW post/complete,
//	                             notify), fixed in the MPI layer
//	[1<<20, +32)                 the device-internal barrier's rounds
//	                             (core.Barrier)
//	[TagPartBase, 2*TagPartBase) partitioned pt2pt chunk traffic
//	[TagNBCBase, +TagNBCSpan)    collective schedules, blocking and
//	                             nonblocking: one fresh tag per call
//	[TagPersistCollBase, +Span)  persistent-collective schedules
const (
	// TagNBCBase / TagNBCSpan bound the per-communicator collective
	// tag sequence. Every collective call advances it, so the range
	// sits above everything with a fixed tag: a window token can be in
	// flight toward a rank that is inside a collective.
	TagNBCBase = 1 << 22
	TagNBCSpan = 1 << 20

	// TagPartBase is the base of the partitioned point-to-point chunk
	// tags: chunk tag = TagPartBase + userTag*TagPartMaxChunks + chunk.
	// With user tags below TagPartMaxUserTag and at most TagPartMaxChunks
	// chunks per operation the encoded range is [TagPartBase, 2*TagPartBase).
	TagPartBase       = 1 << 21
	TagPartMaxUserTag = 1 << 10
	TagPartMaxChunks  = 1 << 11
	tagPartEnd        = TagPartBase + TagPartMaxUserTag*TagPartMaxChunks

	// TagPersistCollBase / TagPersistCollSpan bound the
	// persistent-collective schedule tags (each Init draws one; every
	// Start replays it, so the tag must outlive the nbc sequence's).
	TagPersistCollBase = 1 << 23
	TagPersistCollSpan = 1 << 20
)

// TagClass names the reserved subsystem a tag belongs to: "partitioned"
// for partitioned pt2pt chunk traffic, "persistent-coll" for persistent
// collective schedules, "" for everything else (user tags and the
// fixed low tags share small values, so only the unambiguous high
// ranges are classified). Diagnosis tooling labels stuck receives
// with it.
func TagClass(tag int) string {
	switch {
	case tag >= TagPartBase && tag < tagPartEnd:
		return "partitioned"
	case tag >= TagPersistCollBase && tag < TagPersistCollBase+TagPersistCollSpan:
		return "persistent-coll"
	}
	return ""
}

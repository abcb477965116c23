// Package match implements the MPI message-matching engine: the posted
// receive queue and the unexpected message queue keyed by the
// (communicator context, source, tag) triplet, with MPI_ANY_SOURCE /
// MPI_ANY_TAG wildcards. The triplet is encoded into a 64-bit match
// word the way OFI-capable NICs consume it, so the same engine serves
// as the fabric's "hardware" matching unit and as the baseline device's
// software matching path. It also implements the arrival-order mode of
// the paper's no-match-bits proposal (Section 3.6): masking source and
// tag away leaves only communicator isolation.
package match

import "fmt"

// Bits is a 64-bit match word: context id (16 bits) | source rank
// (16 bits) | tag (32 bits).
type Bits uint64

// Field widths and shifts of the match-word layout.
const (
	ctxShift = 48
	srcShift = 32
	tagShift = 0

	ctxMask Bits = 0xffff << ctxShift
	srcMask Bits = 0xffff << srcShift
	tagMask Bits = 0xffffffff << tagShift

	// MaxTag is the largest encodable tag (MPI guarantees at least
	// 32767 for MPI_TAG_UB; we provide the full 31-bit positive range).
	MaxTag = 1<<31 - 1
)

// MakeBits encodes a fully specified (context, source, tag) triplet.
// Senders always produce fully specified bits.
func MakeBits(context uint16, source int, tag int) Bits {
	return Bits(context)<<ctxShift | Bits(uint16(source))<<srcShift | Bits(uint32(tag))<<tagShift
}

// FullMask matches on all three fields (the ordinary MPI receive).
const FullMask = ctxMask | srcMask | tagMask

// RecvMask builds the mask for a posted receive: wildcards clear the
// corresponding field from the comparison.
func RecvMask(anySource, anyTag bool) Bits {
	m := FullMask
	if anySource {
		m &^= srcMask
	}
	if anyTag {
		m &^= tagMask
	}
	return m
}

// RecvBits is the (bits, mask) pair a receive for (source, tag) on
// context posts. A source or tag of -1 (MPI_ANY_SOURCE, MPI_ANY_TAG) is
// a wildcard: its field is zero in bits and cleared from mask.
func RecvBits(context uint16, source, tag int) (bits, mask Bits) {
	anySource, anyTag := source == -1, tag == -1
	if anySource {
		source = 0
	}
	if anyTag {
		tag = 0
	}
	return MakeBits(context, source, tag), RecvMask(anySource, anyTag)
}

// NoMatchMask retains only communicator isolation: source and tag are
// ignored and messages match receives in arrival order (the
// MPI_ISEND_NOMATCH proposal).
const NoMatchMask = ctxMask

// Context extracts the communicator context id.
func (b Bits) Context() uint16 { return uint16(b >> ctxShift) }

// Source extracts the source rank.
func (b Bits) Source() int { return int(uint16(b >> srcShift)) }

// Tag extracts the tag.
func (b Bits) Tag() int { return int(uint32(b >> tagShift)) }

// Matches reports whether incoming fully-specified bits satisfy a
// posted (bits, mask) pair.
func (b Bits) Matches(posted Bits, mask Bits) bool {
	return b&mask == posted&mask
}

// SourceWild reports whether a mask leaves the source unconstrained
// (MPI_ANY_SOURCE, or a no-match-bits mask).
func (b Bits) SourceWild() bool { return b&srcMask == 0 }

// TagWild reports whether a mask leaves the tag unconstrained
// (MPI_ANY_TAG, or a no-match-bits mask).
func (b Bits) TagWild() bool { return b&tagMask == 0 }

// String renders the triplet for diagnostics.
func (b Bits) String() string {
	return fmt.Sprintf("ctx=%d src=%d tag=%d", b.Context(), b.Source(), b.Tag())
}

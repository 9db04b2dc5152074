package match

// HashList is the hash-table queue organisation the paper's §II discusses
// and rejects: search cost drops for exact-match traffic, but insertion
// cost rises (hash + bucket maintenance + ordering bookkeeping), wildcards
// force scans outside the bucket, and MPI's ordering constraint requires a
// sequence-number merge between the bucket and the wildcard list. It is
// retained here as the abl-hash ablation baseline.
//
// Organisation: exact entries hash on the full {context, source, tag}
// triple; entries with any wildcard go to a single ordered side list. A
// probe must consider the oldest candidate from its bucket AND the side
// list and pick the lower sequence number, otherwise ordering (§II) breaks.
type HashList struct {
	buckets map[Bits][]*Entry // key: exact match word
	wild    []*Entry          // entries whose mask != FullMask, in order
	seq     uint64
	size    int

	// Cost accounting for the ablation benches: abstract "steps" that the
	// firmware translates into memory touches.
	InsertSteps uint64
	SearchSteps uint64
}

// NewHashList returns an empty hash-organised queue.
func NewHashList() *HashList {
	return &HashList{buckets: make(map[Bits][]*Entry)}
}

// Len returns the number of queued entries.
func (h *HashList) Len() int { return h.size }

// Append inserts e, stamping Seq.
func (h *HashList) Append(e *Entry) {
	h.seq++
	e.Seq = h.seq
	h.size++
	// Hashing + bucket append costs more than a list append: hash compute,
	// bucket lookup, tail pointer update (the paper: "can also significantly
	// increase the time needed to insert an entry").
	h.InsertSteps += 3
	if e.Mask != FullMask {
		h.wild = append(h.wild, e)
		return
	}
	h.buckets[e.Bits] = append(h.buckets[e.Bits], e)
}

// FindFirst locates the oldest entry matching the probe, honouring MPI
// ordering across the bucket and wildcard list. It returns the entry or
// nil. Exact probes (probeMask == FullMask) are O(1) + wildcard-list scan;
// wildcard probes degrade to a full scan of all buckets.
func (h *HashList) FindFirst(probeBits, probeMask Bits) *Entry {
	// Oldest matching exact entry. Within a bucket all entries share the
	// same match word, so only the FIFO head can be the first match.
	var bucketBest *Entry
	if probeMask == FullMask {
		h.SearchSteps++ // hash + bucket head
		if b := h.buckets[probeBits]; len(b) > 0 {
			bucketBest = b[0]
		}
	} else {
		// Wildcard probe (unexpected-queue search by a wildcard receive):
		// the hash gives no leverage; scan every bucket (§II: "hashing is
		// also complicated by the need to support wildcard matching").
		for _, b := range h.buckets {
			h.SearchSteps++
			if len(b) > 0 && Matches(b[0].Bits, b[0].Mask, probeBits, probeMask) {
				if bucketBest == nil || b[0].Seq < bucketBest.Seq {
					bucketBest = b[0]
				}
			}
		}
	}

	// Oldest matching wildcard entry: the side list is in posting order.
	var wildBest *Entry
	for _, e := range h.wild {
		h.SearchSteps++
		if Matches(e.Bits, e.Mask, probeBits, probeMask) {
			wildBest = e
			break
		}
	}

	// MPI ordering: the overall first match is the one posted earlier.
	switch {
	case bucketBest == nil:
		return wildBest
	case wildBest == nil:
		return bucketBest
	case wildBest.Seq < bucketBest.Seq:
		return wildBest
	default:
		return bucketBest
	}
}

// InsertOrdered inserts e preserving its existing Seq stamp, keeping the
// bucket (or the wildcard side list) in ascending-Seq order. Append stamps
// a fresh sequence number and so may only grow the tail; a fabric shard's
// overflow hash takes entries that already carry their list posting-order
// stamp, and resync demotion re-inserts ones possibly older than entries
// already present.
func (h *HashList) InsertOrdered(e *Entry) {
	h.size++
	h.InsertSteps += 3
	if e.Seq > h.seq {
		h.seq = e.Seq
	}
	if e.Mask != FullMask {
		h.wild = insertBySeq(h.wild, e)
		return
	}
	h.buckets[e.Bits] = insertBySeq(h.buckets[e.Bits], e)
}

// insertBySeq places e into s keeping ascending Seq. The scan runs from
// the tail: the common case (promotion churn re-adding the newest demoted
// entry) appends, while a demoted old entry walks to the front.
func insertBySeq(s []*Entry, e *Entry) []*Entry {
	i := len(s)
	for i > 0 && s[i-1].Seq > e.Seq {
		i--
	}
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

// Remove deletes e from whichever structure holds it.
func (h *HashList) Remove(e *Entry) bool {
	if e.Mask != FullMask {
		for i, x := range h.wild {
			if x == e {
				h.wild = append(h.wild[:i], h.wild[i+1:]...)
				h.size--
				return true
			}
		}
		return false
	}
	b := h.buckets[e.Bits]
	for i, x := range b {
		if x == e {
			b = append(b[:i], b[i+1:]...)
			if len(b) == 0 {
				delete(h.buckets, e.Bits)
			} else {
				h.buckets[e.Bits] = b
			}
			h.size--
			return true
		}
	}
	return false
}

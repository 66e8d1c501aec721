package core

// Policy is an issue-selection priority scheme (§3.5).
type Policy uint8

const (
	// AgeBased selects the oldest operand-ready instructions, using the
	// 6-bit modulo-64 timestamp of §3.5.
	AgeBased Policy = iota
	// FaultyFirst selects instructions with the faulty bit set before
	// others, releasing their dependents sooner; ties and the no-faulty case
	// fall back to age.
	FaultyFirst
	// CriticalityDriven eagerly selects faulty instructions that the CDL
	// marked critical; if none exist it falls back to age (§3.5.1).
	CriticalityDriven
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case AgeBased:
		return "ABS"
	case FaultyFirst:
		return "FFS"
	case CriticalityDriven:
		return "CDS"
	default:
		return "policy?"
	}
}

// TimestampBits is the width of the issue-queue age counter: a 6-bit
// modulo-64 counter per §3.5.
const TimestampBits = 6

// TimestampMask masks a timestamp to its 6 bits.
const TimestampMask = (1 << TimestampBits) - 1

// Age returns the age of a timestamp relative to the current allocation
// counter, in modulo-64 arithmetic: larger means older. The comparison is
// unambiguous while at most 64 instructions are in flight in the issue
// queue, which a 32-entry queue guarantees.
func Age(ts, now uint8) uint8 {
	return (now - ts) & TimestampMask
}

// Candidate is the selection-visible state of an operand-ready issue-queue
// entry: the 4-bit fault/criticality field and timestamp of the SLE
// (§3.5.1), plus an opaque index the caller uses to map the decision back to
// its own structures.
type Candidate struct {
	// Index identifies the entry to the caller. Order requires the indices of
	// one candidate set to be distinct.
	Index int
	// Timestamp is the 6-bit allocation timestamp.
	Timestamp uint8
	// Faulty is the fault-prediction bit from the instruction meta-data.
	Faulty bool
	// Critical is the CDL-learned criticality bit (meaningful with Faulty).
	Critical bool

	key uint8 // (priority, age) rank under the policy being ordered by (see sortKey)
}

// Order sorts cands in selection-priority order (highest priority first) for
// policy p, given the current value of the issue queue's allocation counter
// (for modulo-64 age comparison). The sort is deterministic: ties break by
// age and then by Index.
//
// Each candidate's (priority, age) rank is computed once, as one integer
// (sortKey), and the Index breaks rank ties, so the comparison is a strict
// total order and the simple insertion sort below produces exactly the
// ordering sort.SliceStable used to — without the closure and
// interface-header allocations that put the standard sort on the heap
// profile of every simulated cycle. Candidate slices are issue-queue sized
// (tens of entries), where insertion sort is also the faster algorithm.
func Order(p Policy, cands []Candidate, now uint8) {
	for i := range cands {
		cands[i].key = sortKey(p, &cands[i], now)
	}
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i - 1
		for j >= 0 && (c.key > cands[j].key || c.key == cands[j].key && c.Index < cands[j].Index) {
			cands[j+1] = cands[j]
			j--
		}
		cands[j+1] = c
	}
}

// sortKey packs c's rank under policy p into one byte, higher selecting
// first: the priority class in bit 6 (faulty under FFS, faulty and critical
// under CDS) above the 6-bit mod-64 age.
func sortKey(p Policy, c *Candidate, now uint8) uint8 {
	var prio uint8
	switch p {
	case FaultyFirst:
		if c.Faulty {
			prio = 1
		}
	case CriticalityDriven:
		if c.Faulty && c.Critical {
			prio = 1
		}
	}
	return prio<<TimestampBits | Age(c.Timestamp, now)
}

// CDL is the Criticality Detection Logic of §3.5.2: when an instruction
// broadcasts its result tag, the number of tag matches in the reservation
// station (its waiting dependents) is compared with the Criticality
// Threshold. The paper finds CT = 8 gives the best outcome.
type CDL struct {
	// CT is the criticality threshold: the minimum number of dependent
	// instructions present in the issue queue for the producer to be deemed
	// critical.
	CT int
}

// DefaultCDL returns the CDL with the paper's best threshold.
func DefaultCDL() CDL { return CDL{CT: 8} }

// Critical reports whether a broadcast with the given number of issue-queue
// tag matches marks the producer as critical.
func (c CDL) Critical(matches int) bool { return matches >= c.CT }

package resolve

// Source is where a lead obtained a result's bytes.
type Source uint8

const (
	None             Source = iota // no bytes: the caller was refused or gave up
	Memory                         // the in-memory memo
	Store                          // the persistent result store
	Peer                           // read through a cluster peer's cache
	Forward                        // forwarded to the digest's owning node
	Restored                       // simulated here from a restored warm snapshot
	Cold                           // simulated here after a cold neutral warmup
	DegradedRestored               // Restored, standing in for an unreachable owner
	DegradedCold                   // Cold, standing in for an unreachable owner
)

// Provenance is how one caller obtained a result: where the bytes came from,
// and whether the caller shared another caller's in-flight lead instead of
// leading. Its methods are the only mapping onto the labels the wire
// carries; campaign.ClassOf folds it into the campaign accounting classes.
type Provenance struct {
	Src    Source
	Shared bool
}

// Cache is the X-Tvsched-Cache value and the serving-metrics outcome:
// "shared" for a join, "hit" when nothing was recomputed (memo or store),
// "miss" otherwise.
func (p Provenance) Cache() string {
	switch {
	case p.Shared:
		return "shared"
	case p.Src == Memory || p.Src == Store:
		return "hit"
	}
	return "miss"
}

// Header is the X-Tvsched-Source value: the lead's source, whether or not
// this caller shared it. Empty for None.
func (p Provenance) Header() string { return headers[p.Src] }

// Label is the span and log provenance label. Empty for None.
func (p Provenance) Label() string {
	if p.Shared {
		return "shared"
	}
	return labels[p.Src]
}

var (
	headers = [...]string{
		Memory: "memory", Store: "store", Peer: "peer", Forward: "forward",
		Restored: "compute", Cold: "compute",
		DegradedRestored: "compute-degraded", DegradedCold: "compute-degraded",
	}
	labels = [...]string{
		Memory: "hit", Store: "hit", Peer: "peer", Forward: "forward",
		Restored: "restored", Cold: "cold",
		DegradedRestored: "degraded", DegradedCold: "degraded",
	}
)

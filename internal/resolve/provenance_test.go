package resolve_test

import (
	"errors"
	"testing"

	"tvsched/internal/campaign"
	"tvsched/internal/resolve"
)

// TestProvenanceLabelsGolden pins every provenance to the labels the wire
// carries: the X-Tvsched-Cache and X-Tvsched-Source headers, the span/log
// label, and the campaign accounting class. The rows are the outputs the
// serving and campaign layers produced before they shared one provenance
// type; changing any of them changes a header, a metric label or a journal.
func TestProvenanceLabelsGolden(t *testing.T) {
	rows := []struct {
		prov                 resolve.Provenance
		cache, header, label string
		class                campaign.Class
	}{
		{resolve.Provenance{Src: resolve.Memory}, "hit", "memory", "hit", campaign.ClassHit},
		{resolve.Provenance{Src: resolve.Store}, "hit", "store", "hit", campaign.ClassHit},
		{resolve.Provenance{Src: resolve.Peer}, "miss", "peer", "peer", campaign.ClassStolen},
		{resolve.Provenance{Src: resolve.Forward}, "miss", "forward", "forward", campaign.ClassStolen},
		{resolve.Provenance{Src: resolve.Restored}, "miss", "compute", "restored", campaign.ClassRestored},
		{resolve.Provenance{Src: resolve.Cold}, "miss", "compute", "cold", campaign.ClassCold},
		// Degraded runs are labelled as such but count by how they warmed up.
		{resolve.Provenance{Src: resolve.DegradedRestored}, "miss", "compute-degraded", "degraded", campaign.ClassRestored},
		{resolve.Provenance{Src: resolve.DegradedCold}, "miss", "compute-degraded", "degraded", campaign.ClassCold},
		// A joiner is "shared" everywhere except the source header, which
		// names where its leader got the bytes.
		{resolve.Provenance{Src: resolve.Store, Shared: true}, "shared", "store", "shared", campaign.ClassShared},
		{resolve.Provenance{Src: resolve.Peer, Shared: true}, "shared", "peer", "shared", campaign.ClassShared},
		{resolve.Provenance{Src: resolve.Forward, Shared: true}, "shared", "forward", "shared", campaign.ClassShared},
		{resolve.Provenance{Src: resolve.Restored, Shared: true}, "shared", "compute", "shared", campaign.ClassShared},
		{resolve.Provenance{Src: resolve.Cold, Shared: true}, "shared", "compute", "shared", campaign.ClassShared},
		{resolve.Provenance{Src: resolve.DegradedRestored, Shared: true}, "shared", "compute-degraded", "shared", campaign.ClassShared},
		{resolve.Provenance{Src: resolve.DegradedCold, Shared: true}, "shared", "compute-degraded", "shared", campaign.ClassShared},
	}
	for _, r := range rows {
		if got := r.prov.Cache(); got != r.cache {
			t.Errorf("%+v: X-Tvsched-Cache %q, want %q", r.prov, got, r.cache)
		}
		if got := r.prov.Header(); got != r.header {
			t.Errorf("%+v: X-Tvsched-Source %q, want %q", r.prov, got, r.header)
		}
		if got := r.prov.Label(); got != r.label {
			t.Errorf("%+v: label %q, want %q", r.prov, got, r.label)
		}
		if got := campaign.ClassOf(r.prov, nil); got != r.class {
			t.Errorf("%+v: class %v, want %v", r.prov, got, r.class)
		}
		if got := campaign.ClassOf(r.prov, errors.New("failed")); got != campaign.ClassError {
			t.Errorf("%+v with an error: class %v, want error", r.prov, got)
		}
	}
	// No bytes — a refused or abandoned caller: no source header, and no
	// label of its own (serving labels it by its outcome).
	if none := (resolve.Provenance{}); none.Header() != "" || none.Label() != "" {
		t.Errorf("no-source provenance header %q label %q, want both empty", none.Header(), none.Label())
	}
}

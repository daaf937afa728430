package scenario

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/device"
)

// envelopeDigestsPath pins the SHA-256 of every registered scenario's
// Quick-scale canonical envelope, one "<hex>  <name>" line each
// (sha256sum's layout). A change that moves any simulated result fails
// TestCloneBootEquivalence by name; when the move is intended, replace
// that scenario's line with the digest the failure reports.
const envelopeDigestsPath = "testdata/envelopes.sha256"

func loadEnvelopeDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(envelopeDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", envelopeDigestsPath, sc.Text())
		}
		out[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCloneBootEquivalence asserts the snapshot/clone core's guarantee
// over the whole registry: every scenario produces a byte-identical
// canonical envelope whether its devices are fresh boots or
// copy-on-write clones of a sealed template (wall time is the only run
// metadata allowed to differ). The list comes from List(), so new
// scenarios are covered the moment they register. The test is serial —
// SetCloneBoot is a process-global toggle — but each pass is cheap at
// Quick scale. The fresh-boot envelope must also hash to the scenario's
// pinned digest, so the registry's results cannot drift unnoticed.
func TestCloneBootEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scenario twice; skipped under -short")
	}
	pinned := loadEnvelopeDigests(t)
	registered := make(map[string]bool)
	for _, sc := range List() {
		registered[sc.Name] = true
	}
	for name := range pinned {
		if !registered[name] {
			t.Errorf("%s pins scenario %s, which is not registered", envelopeDigestsPath, name)
		}
	}
	defer device.SetCloneBoot(true)
	for _, sc := range List() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			run := func(cloneBoot bool) []byte {
				device.SetCloneBoot(cloneBoot)
				env, err := sc.Execute(context.Background(), Params{Scale: Quick, Workers: 1})
				if err != nil {
					t.Fatalf("cloneBoot=%v: %v", cloneBoot, err)
				}
				b, err := env.CanonicalJSON()
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			fresh, cloned := run(false), run(true)
			if !bytes.Equal(fresh, cloned) {
				t.Errorf("fresh-boot and clone-boot envelopes differ\nfresh: %.400s\nclone: %.400s", fresh, cloned)
			}
			got := fmt.Sprintf("%x", sha256.Sum256(fresh))
			if want, ok := pinned[sc.Name]; !ok {
				t.Errorf("scenario %s has no digest in %s (its envelope hashes to %s)", sc.Name, envelopeDigestsPath, got)
			} else if got != want {
				t.Errorf("scenario %s envelope digest %s, pinned %s in %s", sc.Name, got, want, envelopeDigestsPath)
			}
		})
	}
}

package service

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"privcount/internal/design"
)

// TestLPBuildsAreHistoryFree pins that an LP build is a function of its
// spec alone. The design LPs have many optimal vertices of equal cost,
// so a solve seeded by whatever the process solved before — the same
// shape at a neighbouring α — could land on another vertex and export
// other bytes, and honest replicas would then report sync conflicts.
// Each spec is built cold on one service, then on a second service
// right after its α-neighbour, and the two artifacts must be
// byte-identical.
func TestLPBuildsAreHistoryFree(t *testing.T) {
	design.ClearCache()
	cases := []struct{ spec, neighbour string }{
		{"lp:n=48:a=0.9:WH+CM:p=0", "lp:n=48:a=0.85:WH+CM:p=0"},
		{"lp:n=40:a=0.85:CH:p=0", "lp:n=40:a=0.8:CH:p=0"},
	}
	export := func(svc *Service, token string) []byte {
		t.Helper()
		spec, err := ParseSpec(token)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Get(spec); err != nil {
			t.Fatalf("build %s: %v", token, err)
		}
		art, err := svc.ExportArtifact(spec)
		if err != nil {
			t.Fatalf("export %s: %v", token, err)
		}
		return art
	}

	cold := New(Config{Seed: 1})
	defer cold.Close()
	want := make([][]byte, len(cases))
	for i, c := range cases {
		want[i] = export(cold, c.spec)
	}

	after := New(Config{Seed: 1})
	defer after.Close()
	for i, c := range cases {
		export(after, c.neighbour)
		if got := export(after, c.spec); !bytes.Equal(got, want[i]) {
			t.Errorf("%s built after %s exports sha256 %x, cold build %x",
				c.spec, c.neighbour, sha256.Sum256(got), sha256.Sum256(want[i]))
		}
	}
}

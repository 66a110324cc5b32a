package service

import (
	"runtime"
	"strings"
	"testing"

	"privcount/internal/design"
)

// TestLPLatticeETagsPinned pins, bit for bit, the canonical artifact of
// every spec in the benchmark's build-cold lattice: band, symmetric and
// full LPs, and minimax. Each is built cold — design memo cleared, on a
// fresh store-less Service — and its ETag (the hex sha256 of the
// canonical artifact) must match the table. A change to the LP engine's
// storage or loop structure that keeps every floating-point operation
// in place keeps these hashes. A change that means to move a solve onto
// another optimal vertex (a canonical tie-break, say) updates the table
// on purpose, as it does TestDesignModelFingerprint's. The hashes are
// pinned on amd64, where Go never fuses a multiply-add.
func TestLPLatticeETagsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("artifact hashes are pinned on amd64")
	}
	if raceEnabled {
		t.Skip("11 cold LP builds; the race detector slows them ~15x")
	}
	want := []struct{ spec, etag string }{
		{"choose:n=256:a=0.9:CM", "4ee6ed0494deaf4bca2b3f6c9f03599ecfd54962c26e66ec1b4b4966d75af598"},
		{"choose:n=512:a=0.75:CM", "78a6d06b1978eee9996082b6e8e76d49cfd2bb24a9210135bf46afb83a60e77f"},
		{"lp:n=128:a=0.85:RM+CM+S:p=0", "bdab27850800006c4894c69e3971960dd871cbad87837415978b858638cb27d6"},
		{"lp:n=96:a=0.85:RM+S:p=0", "ca0cab2015b16b782dfd309a908d241d31d13653c4563580dfd59be21c9c778b"},
		{"lp:n=96:a=0.9:RM+S:p=0", "7c23e454c026e075d8139d91f82fbd71728bdd280f278f7c08e6d7f5bc449be6"},
		{"lp:n=96:a=0.95:RM+S:p=0", "4578a28568da4f213bb482d0caf3423ccd74de72be7ab2dd404c21e303ec6438"},
		{"lp:n=64:a=0.9:RH+CH+S:p=0", "0fab343f844b5fd11387ab685a6c2c40237f03d7838298477705ae0f45353c55"},
		{"lp:n=48:a=0.9:WH+CM:p=0", "b70fa311eb7bfb0dc3340a5b4654787bcb75a989a6ce881e67847fd82beffebd"},
		{"lp:n=40:a=0.85:CH:p=0", "ce96287ffebfd1899d83d2a0c95ef53fc1e34c015711240a975cfb7601ea61d5"},
		{"lp-minimax:n=32:a=0.9:none:p=0", "4ad58573e1f5d6d21ab821d063fc74c8f46c87baaf30bf4014a0657f1e16234e"},
		{"lp-minimax:n=64:a=0.9:none:p=0", "53a3de14543ae49ef0929f76729c232bb2f2b9b98afa524d4886fca381b38e82"},
	}
	t.Cleanup(design.ClearCache)
	for _, c := range want {
		spec, err := ParseSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		design.ClearCache()
		svc := New(Config{Seed: 1})
		if _, err := svc.Get(spec); err != nil {
			svc.Close()
			t.Fatalf("build %s: %v", c.spec, err)
		}
		etag, err := svc.ExportETag(spec)
		svc.Close()
		if err != nil {
			t.Fatalf("export %s: %v", c.spec, err)
		}
		if got := strings.Trim(etag, `"`); got != c.etag {
			t.Errorf("%s: artifact sha256 %s, pinned %s", c.spec, got, c.etag)
		}
	}
}

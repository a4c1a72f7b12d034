package main

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/wal"
)

// TestValidateFlags doubles as the build-level smoke test: having any test
// in this package makes `go test ./...` compile the binary.
func TestValidateFlags(t *testing.T) {
	type flags struct {
		addr, data, fsync                 string
		sf, threads, batch, queue, shards int
		snapEvery                         int
		fsyncIvl                          time.Duration
	}
	ok := flags{addr: ":8080", fsync: "always", sf: 1, threads: 1, batch: 64,
		queue: 256, shards: 1, snapEvery: 256, fsyncIvl: time.Millisecond}
	cases := []struct {
		name    string
		mut     func(*flags)
		wantErr bool
	}{
		{"ok", func(f *flags) {}, false},
		{"ok sharded", func(f *flags) { f.shards = 8 }, false},
		{"ok data ignores sf", func(f *flags) { f.data, f.sf = "data/sf8", 0 }, false},
		{"ok fsync interval", func(f *flags) { f.fsync = "interval" }, false},
		{"ok fsync off", func(f *flags) { f.fsync = "off" }, false},
		{"ok snapshots disabled", func(f *flags) { f.snapEvery = -1 }, false},
		{"empty addr", func(f *flags) { f.addr = "" }, true},
		{"zero sf", func(f *flags) { f.sf = 0 }, true},
		{"zero threads", func(f *flags) { f.threads = 0 }, true},
		{"zero batch", func(f *flags) { f.batch = 0 }, true},
		{"zero queue", func(f *flags) { f.queue = 0 }, true},
		{"zero shards", func(f *flags) { f.shards = 0 }, true},
		{"negative shards", func(f *flags) { f.shards = -2 }, true},
		{"bad fsync policy", func(f *flags) { f.fsync = "sometimes" }, true},
		{"zero fsync interval", func(f *flags) { f.fsyncIvl = 0 }, true},
		{"nondefault snapshot-every", func(f *flags) { f.snapEvery = 10 }, false},
		{"zero snapshot-every", func(f *flags) { f.snapEvery = 0 }, true},
	}
	for _, tc := range cases {
		f := ok
		tc.mut(&f)
		policy, err := validateFlags(f.addr, f.data, f.fsync,
			f.sf, f.threads, f.batch, f.queue, f.shards, f.snapEvery, f.fsyncIvl)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: validateFlags = %v, wantErr=%v", tc.name, err, tc.wantErr)
		}
		if tc.name == "ok fsync off" && err == nil && policy != wal.SyncOff {
			t.Errorf("fsync off resolved to %v", policy)
		}
	}
}

// TestNewHTTPServer pins the connection timeouts: header reads and idle
// keep-alives are bounded, and nothing bounds a response, since a waited
// update blocks until its batch commits.
func TestNewHTTPServer(t *testing.T) {
	h := http.NotFoundHandler()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Fatalf("addr %q, handler %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v > 0", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v > 0", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none: waited updates block", srv.WriteTimeout)
	}
}

package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// -pprof serves the profiler on its own listener only: the index answers
// there, the verification handler has no such route, and stop closes the
// listener.
func TestPprofListenerIsSeparate(t *testing.T) {
	addr, stop, err := startPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Errorf("pprof cmdline = %d %q", resp.StatusCode, body)
	}

	srv, closeSys, err := newServer(testOptions(t, writeCSVFixture(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer closeSys()
	defer func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	main := httptest.NewServer(srv)
	defer main.Close()
	resp, err = http.Get(main.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("verification listener answered /debug/pprof/ with %d, want 404", resp.StatusCode)
	}

	stop()
	if _, err := http.Get("http://" + addr + "/debug/pprof/cmdline"); err == nil {
		t.Error("pprof listener still answering after stop")
	}
	if _, _, err := startPprof("not an address"); err == nil {
		t.Error("startPprof accepted a malformed address")
	}
}

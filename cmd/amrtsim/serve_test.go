package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHTTPServerLimits pins the daemon's connection limits: header and
// whole-request read deadlines, and no write deadline, which would cut
// the long-lived watch stream.
func TestHTTPServerLimits(t *testing.T) {
	s := newHTTPServer(http.NotFoundHandler())
	if s.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v (> 0)", s.ReadHeaderTimeout, readHeaderTimeout)
	}
	if s.ReadTimeout != readTimeout || readTimeout <= 0 {
		t.Errorf("ReadTimeout = %v, want %v (> 0)", s.ReadTimeout, readTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v; it must stay zero for watch streams", s.WriteTimeout)
	}
}

// uploadAndStream answers POST by reading the whole body and GET with a
// six-line stream, one line per 50ms, until the client or the request
// context goes away.
var uploadAndStream = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		if _, err := io.ReadAll(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		return
	}
	for i := 0; i < 6; i++ {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(50 * time.Millisecond):
		}
		fmt.Fprintf(w, "line %d\n", i)
		w.(http.Flusher).Flush()
	}
})

// shortServer is the daemon's server with its limits scaled down to
// 100ms, serving uploadAndStream.
func shortServer(t *testing.T, write time.Duration) string {
	t.Helper()
	s := newHTTPServer(uploadAndStream)
	s.ReadHeaderTimeout, s.ReadTimeout, s.WriteTimeout = 100*time.Millisecond, 100*time.Millisecond, write
	ts := httptest.NewUnstartedServer(s.Handler)
	ts.Config = s
	ts.Start()
	t.Cleanup(ts.Close)
	return ts.Listener.Addr().String()
}

// streamLines counts the lines a GET stream delivers.
func streamLines(t *testing.T, addr string) int {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n := 0
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		n++
	}
	return n
}

// firstLine sends raw to the server and returns the first response line
// (empty if the server closed the connection without answering).
func firstLine(t *testing.T, addr, raw string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, raw)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil && err != io.EOF {
		t.Fatalf("waiting for the server: %v", err)
	}
	return line
}

func TestReadLimitsCutStalledClients(t *testing.T) {
	addr := shortServer(t, 0)
	// Headers never finished: the server hangs up (or answers 408)
	// instead of waiting.
	if line := firstLine(t, addr, "GET /watch HTTP/1.1\r\nHost: x\r\n"); line != "" && !strings.Contains(line, "408") {
		t.Errorf("slow-header client got %q, want the connection closed", line)
	}
	// Ten body bytes promised, two sent: the body read fails.
	line := firstLine(t, addr, "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nab")
	if !strings.Contains(line, "400") {
		t.Errorf("stalled upload answered %q, want 400", strings.TrimSpace(line))
	}
}

func TestReadLimitsKeepStreams(t *testing.T) {
	// The stream runs 300ms, three times the read limits.
	if n := streamLines(t, shortServer(t, 0)); n != 6 {
		t.Errorf("stream delivered %d lines, want 6", n)
	}
	// Why WriteTimeout stays zero: a write deadline cuts the stream.
	if n := streamLines(t, shortServer(t, 100*time.Millisecond)); n >= 6 {
		t.Errorf("with a WriteTimeout the stream delivered all %d lines; expected it cut short", n)
	}
}

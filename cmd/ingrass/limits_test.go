package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ingrass/internal/repl"
)

// TestHTTPBodyTooLarge: every JSON endpoint reads at most the router's body
// cap and answers a larger body with 413, without decoding it.
func TestHTTPBodyTooLarge(t *testing.T) {
	svc := testService(t)
	srv := httptest.NewServer(newServeMux(svc, nil))
	defer srv.Close()

	// A syntactically valid prefix followed by 9 MiB of array elements.
	body := make([]byte, 0, 9<<20+16)
	body = append(body, `{"b":[0`...)
	for len(body) < 9<<20 {
		body = append(body, ",0"...)
	}
	body = append(body, "]}"...)
	if len(body) <= repl.DefaultMaxBodyBytes {
		t.Fatalf("test body %d bytes is not above the %d-byte cap", len(body), repl.DefaultMaxBodyBytes)
	}
	for _, ep := range []struct{ method, path string }{
		{http.MethodPost, "/solve"},
		{http.MethodPost, "/solve/batch"},
		{http.MethodPost, "/resistance/batch"},
		{http.MethodPost, "/edges"},
		{http.MethodDelete, "/edges"},
	} {
		req, err := http.NewRequest(ep.method, srv.URL+ep.path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", ep.method, ep.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s with a 9 MiB body: status %d, want 413", ep.method, ep.path, resp.StatusCode)
		}
	}
	if st := svc.Stats(); st.Solves != 0 || st.WriteRequests != 0 {
		t.Fatalf("oversized bodies reached the service: %d solves, %d writes", st.Solves, st.WriteRequests)
	}
}

// TestServerClosesStalledHeaders: a connection that starts a request but
// never finishes its headers is closed after serverReadHeaderTimeout
// instead of holding a server goroutine forever.
func TestServerClosesStalledHeaders(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /solve HTTP/1.1\r\nHost: ingrass\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(serverReadHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after its headers stalled", time.Since(start))
	}
	if n != 0 || err == nil {
		t.Fatalf("stalled connection got a reply (%d bytes, err %v), want it closed", n, err)
	}
	if waited := time.Since(start); waited < serverReadHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", waited, serverReadHeaderTimeout)
	}
}

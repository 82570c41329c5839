package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"qb5000/internal/leakcheck"
)

// startRun serves run on a loopback listener and returns the base URL and a
// channel that receives run's result.
func startRun(t *testing.T, ctx context.Context, flags ...string) (string, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", addr, "-model", "LR"}, flags...), ln) }()
	return addr, done
}

// waitReturn fails t unless run returns nil within a few seconds.
func waitReturn(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return within 10s of its context ending")
	}
}

// TestRunStopsOnCancel: with the background maintain loop ticking over a
// trained catalog, ending run's context must stop the server and the loop
// and return, leaving no goroutine behind.
func TestRunStopsOnCancel(t *testing.T) {
	save := t.TempDir() + "/d.snap"
	leakcheck.Check(t, func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		addr, done := startRun(t, ctx, "-maintain-every", "10ms", "-save", save)
		client := &http.Client{Transport: &http.Transport{}}
		defer client.CloseIdleConnections()

		var trace strings.Builder
		base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; i < 6*60; i++ {
			fmt.Fprintf(&trace, "%s\tSELECT a FROM t WHERE x = %d\n", base.Add(time.Duration(i)*time.Minute).Format(time.RFC3339), i)
		}
		resp, err := client.Post("http://"+addr+"/observe", "text/plain", strings.NewReader(trace.String()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/observe: %s", resp.Status)
		}
		// Let the loop retrain at least once before the context ends.
		for polls, clusters := 0, 0; clusters == 0; polls++ {
			if polls == 500 {
				t.Error("the maintain loop has not retrained after 500 polls of /stats")
				break
			}
			time.Sleep(10 * time.Millisecond)
			resp, err := client.Get("http://" + addr + "/stats")
			if err != nil {
				t.Fatal(err)
			}
			var stats struct{ Clusters int }
			err = json.NewDecoder(resp.Body).Decode(&stats)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			clusters = stats.Clusters
		}
		cancel()
		waitReturn(t, done)
	})
	if _, err := os.Stat(save); err != nil {
		t.Fatalf("no snapshot after shutdown: %v", err)
	}
}

// TestRunCutsOffSlowHeader: a client that sends half a request header and
// then stalls must be disconnected once the server's ReadHeaderTimeout
// (10 s) passes, not hold its handler goroutine for the life of the daemon.
func TestRunCutsOffSlowHeader(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the server's 10 s ReadHeaderTimeout")
	}
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := startRun(t, ctx)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /stats HTTP/1.1\r\nHost: qb5000d\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(15 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var buf [512]byte
	for {
		_, err := conn.Read(buf[:])
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			t.Fatal("a stalled request header still holds its connection after 15 s; the server needs a ReadHeaderTimeout")
		}
		if err != nil {
			break // the server closed the connection
		}
	}
	cancel()
	waitReturn(t, done)
}

package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"diffserve/internal/loadbalancer"
	"diffserve/internal/trace"
)

// TestTCPFrameRoundTrip pins the frame encoding: appendFrame output
// must decode to the same header and payload.
func TestTCPFrameRoundTrip(t *testing.T) {
	msg := &PullRequest{WorkerID: 3, Role: "light", Max: 8, Wait: 0.25}
	b, err := appendFrame(nil, frameRequest, methodPull, 42, msg, "")
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := readFrame(bufio.NewReader(bytes.NewReader(b)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != frameRequest || f.method != methodPull || f.codec != codecIDBinary || f.id != 42 {
		t.Errorf("header = %+v", f)
	}
	var out PullRequest
	if err := CodecBinary.Unmarshal(f.payload, &out); err != nil {
		t.Fatal(err)
	}
	if out != *msg {
		t.Errorf("payload = %+v, want %+v", out, *msg)
	}

	// Error frames carry the error text as their payload.
	b, err = appendFrame(nil, frameError, methodPull, 7, nil, "boom")
	if err != nil {
		t.Fatal(err)
	}
	f, _, err = readFrame(bufio.NewReader(bytes.NewReader(b)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != frameError || string(f.payload) != "boom" {
		t.Errorf("error frame = %+v payload %q", f, f.payload)
	}
}

// jsonFrame builds a frame the way a JSON-codec client framed one
// before the transport went binary-only: the JSON codec id in the
// header and an encoding/json payload.
func jsonFrame(tb testing.TB, kind, method byte, id uint64, msg interface{}) []byte {
	payload, err := json.Marshal(msg)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := appendFrame(nil, kind, method, id, nil, "")
	if err != nil {
		tb.Fatal(err)
	}
	b[6] = codecIDJSON
	b = append(b, payload...)
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	return b
}

// TestTCPServerRejectsJSONCodecFrames sends a JSON-codec request frame
// to a live server: it must come back as an error frame naming the
// codec, and the same connection must go on serving binary frames.
func TestTCPServerRejectsJSONCodecFrames(t *testing.T) {
	lb := newTestLB(0.001)
	srv, err := ServeLBTCP("127.0.0.1:0", lb)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)

	if _, err := conn.Write(jsonFrame(t, frameRequest, methodSubmit, 5, &SubmitRequest{Queries: []QueryMsg{{ID: 1}}})); err != nil {
		t.Fatal(err)
	}
	f, _, err := readFrame(br, nil)
	if err != nil {
		t.Fatalf("no answer to a JSON frame: %v", err)
	}
	if f.kind != frameError || f.id != 5 || !strings.Contains(string(f.payload), "binary codec") {
		t.Fatalf("JSON frame answered with kind %d id %d payload %q, want an error frame for id 5 naming the codec", f.kind, f.id, f.payload)
	}

	req, err := appendFrame(nil, frameRequest, methodLBStats, 6, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	f, _, err = readFrame(br, nil)
	if err != nil {
		t.Fatalf("connection dropped after the rejected frame: %v", err)
	}
	if f.kind != frameResponse || f.id != 6 {
		t.Fatalf("binary frame answered with kind %d id %d payload %q", f.kind, f.id, f.payload)
	}
	var stats LBStats
	if err := CodecBinary.Unmarshal(f.payload, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.ArrivalsSinceTick != 0 || stats.LightQueueLen != 0 {
		t.Fatalf("rejected submit was admitted: %+v", stats)
	}
}

// TestTCPFrameRejectsCorruptHeaders exercises the decode guards:
// oversized and undersized declared lengths, invalid kind, method,
// and codec bytes must all fail without panicking.
func TestTCPFrameRejectsCorruptHeaders(t *testing.T) {
	valid, err := appendFrame(nil, frameRequest, methodPull, 1, &PullRequest{}, "")
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mut(b)
		return b
	}
	cases := map[string][]byte{
		"oversized-length":  corrupt(func(b []byte) { b[0], b[1], b[2], b[3] = 0xff, 0xff, 0xff, 0xff }),
		"undersized-length": corrupt(func(b []byte) { b[0], b[1], b[2], b[3] = 0, 0, 0, frameHeaderLen-1 }),
		"bad-kind":          corrupt(func(b []byte) { b[4] = 99 }),
		"bad-method":        corrupt(func(b []byte) { b[5] = 0 }),
		"bad-codec":         corrupt(func(b []byte) { b[6] = 7 }),
		"truncated":         valid[:len(valid)-2],
	}
	for name, data := range cases {
		if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil); err == nil {
			t.Errorf("%s: corrupted frame decoded without error", name)
		}
	}
}

// TestTCPConcurrentCalls hammers one multiplexed connection from many
// goroutines and checks every response correlates to its own request.
func TestTCPConcurrentCalls(t *testing.T) {
	lb := newTestLB(0.001)
	srv, err := ServeLBTCP("127.0.0.1:0", lb)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := NewTCPLBConn(srv.Addr())
	defer conn.(tcpLBConn).c.Close()

	const calls = 64
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Mix blocking long polls with instant control calls so
			// responses interleave out of request order.
			if i%4 == 0 {
				resp, err := conn.Pull(context.Background(), PullRequest{Role: "light", Max: 1, Wait: 2})
				if err != nil {
					errs <- err
				} else if len(resp.Queries) != 0 {
					t.Errorf("unexpected work: %+v", resp.Queries)
				}
				return
			}
			if _, err := conn.Stats(context.Background()); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTCPClientRedialsAfterRestart kills the server and restarts one
// on the same address: the next call on the same conn must redial
// transparently.
func TestTCPClientRedialsAfterRestart(t *testing.T) {
	lb := newTestLB(0.001)
	srv, err := ServeLBTCP("127.0.0.1:0", lb)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	conn := NewTCPLBConn(addr)
	defer conn.(tcpLBConn).c.Close()
	if _, err := conn.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	srv2, err := ServeLBTCP(addr, lb)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer srv2.Close()

	// The first call may observe the dead connection; the redial (with
	// retries) must succeed well within the dial budget.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = conn.Stats(context.Background()); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("conn never recovered after server restart: %v", err)
		}
	}
}

// TestHarnessReportsTransportFailure kills the TCP listeners midway
// through a harness run and asserts the run surfaces the transport
// failure instead of silently dropping the in-flight queries.
func TestHarnessReportsTransportFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("harness failure injection skipped in -short mode")
	}
	f := newFixtures(t)
	tr, err := trace.Static(6, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp := newTCPTransport()

	resCh := make(chan *Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := Run(HarnessConfig{
			Space: f.space, Light: f.light, Heavy: f.heavy, Scorer: f.scorer,
			Mode: loadbalancer.ModeCascade, Workers: 4, SLO: 5,
			Trace: tr, Ctrl: f.controller(t, 4, 5),
			Timescale: 0.1, Seed: 7, DisableLoadDelay: true,
			TransportImpl: tp,
		})
		resCh <- res
		errCh <- err
	}()

	// Let the replay get underway, then kill the server side. The
	// clients' redials must exhaust and abort the run.
	time.Sleep(700 * time.Millisecond)
	tp.closeServers()

	select {
	case res := <-resCh:
		err := <-errCh
		if err == nil {
			t.Fatalf("harness swallowed the transport failure: res=%+v", res)
		}
		if !strings.Contains(err.Error(), "transport failed mid-run") {
			t.Errorf("error %q does not name the transport failure", err)
		}
		t.Logf("harness reported: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("harness did not return after the transport died")
	}
}

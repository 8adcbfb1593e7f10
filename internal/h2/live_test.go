package h2

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The live path is net/http's prior-knowledge cleartext HTTP/2 on
// both ends with a RequestPacer relaying the client→server half, as
// cmd/h2get → cmd/h2proxy → cmd/h2serve run it. These tests pin that
// real HTTP/2 traffic survives the pacer: requests, bodies, flow
// control, PING and SETTINGS all pass through it unchanged.

// liveRig is a client, a pacer proxy and an origin server on loopback.
type liveRig struct {
	tr    *http.Transport
	base  string       // the proxy's URL prefix, "http://host:port"
	conns atomic.Int32 // connections the proxy accepted
}

// newLiveRig serves srv.Handler with cleartext HTTP/2 behind a proxy
// whose pacer holds requests spacing apart, and returns an HTTP/2-only
// transport for it. onFrame, when non-nil, observes every frame the
// pacer parses; it runs on the relay goroutine. Set rig.tr.HTTP2
// before the first request to tune the client.
func newLiveRig(t *testing.T, srv *http.Server, spacing time.Duration, onFrame func(Frame)) *liveRig {
	t.Helper()
	srv.Protocols = new(http.Protocols)
	srv.Protocols.SetUnencryptedHTTP2(true)
	originLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(originLn) //nolint:errcheck // ends at Close
	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	rig := &liveRig{base: "http://" + proxyLn.Addr().String()}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		open []net.Conn
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			cc, aerr := proxyLn.Accept()
			if aerr != nil {
				return
			}
			rig.conns.Add(1)
			sc, derr := net.Dial("tcp", originLn.Addr().String())
			if derr != nil {
				cc.Close() //nolint:errcheck // origin unreachable
				continue
			}
			mu.Lock()
			open = append(open, cc, sc)
			mu.Unlock()
			p := NewRequestPacer(sc, spacing, true)
			p.OnFrame = onFrame
			wg.Add(2)
			go func() {
				defer wg.Done()
				defer sc.(*net.TCPConn).CloseWrite() //nolint:errcheck // half-close
				relay(p, cc, func([]byte) {})
			}()
			go func() {
				defer wg.Done()
				defer cc.(*net.TCPConn).CloseWrite() //nolint:errcheck // half-close
				relay(cc, sc, func([]byte) {})
			}()
		}
	}()

	// HTTP/2 only, without TLS, on one connection.
	rig.tr = &http.Transport{MaxConnsPerHost: 1, Protocols: new(http.Protocols)}
	rig.tr.Protocols.SetUnencryptedHTTP2(true)
	t.Cleanup(func() {
		rig.tr.CloseIdleConnections()
		_ = proxyLn.Close() //nolint:errcheck // ends the accept loop
		_ = srv.Close()     //nolint:errcheck // teardown
		mu.Lock()
		for _, c := range open {
			_ = c.Close() //nolint:errcheck // teardown
		}
		mu.Unlock()
		wg.Wait()
	})
	return rig
}

// do sends req through the proxy and reads the whole response body.
func (r *liveRig) do(req *http.Request) (*http.Response, []byte, error) {
	resp, err := r.tr.RoundTrip(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // body fully read
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

func (r *liveRig) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", r.base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, body, err := r.do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp, body
}

func (r *liveRig) post(t *testing.T, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", r.base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, got, err := r.do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return resp, got
}

// writeFlushed writes body in chunk-byte slices with a Flush after
// each, so each slice leaves as one DATA frame.
func writeFlushed(w http.ResponseWriter, body []byte, chunk int) {
	for off := 0; off < len(body); off += chunk {
		if _, err := w.Write(body[off:min(off+chunk, len(body))]); err != nil {
			return
		}
		w.(http.Flusher).Flush()
	}
}

// frameLog collects the frames a pacer observes, safe for concurrent
// use, and signals when one matching a predicate arrives.
type frameLog struct {
	mu     sync.Mutex
	frames []Frame
	notify chan struct{}
}

func newFrameLog() *frameLog { return &frameLog{notify: make(chan struct{}, 1)} }

// observe records a copy of f; pacer frames alias its buffer.
func (l *frameLog) observe(f Frame) {
	fc, err := ParseFramePayload(f.Header(), MarshalFrame(f)[FrameHeaderLen:])
	if err != nil {
		return
	}
	l.mu.Lock()
	l.frames = append(l.frames, fc)
	l.mu.Unlock()
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// waitFor blocks until a logged frame satisfies pred, failing the test
// after five seconds.
func (l *frameLog) waitFor(t *testing.T, what string, pred func(Frame) bool) Frame {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		l.mu.Lock()
		for _, f := range l.frames {
			if pred(f) {
				l.mu.Unlock()
				return f
			}
		}
		l.mu.Unlock()
		select {
		case <-l.notify:
		case <-deadline:
			t.Fatalf("the pacer never saw %s", what)
			return nil
		}
	}
}

func (l *frameLog) snapshot() []Frame {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Frame(nil), l.frames...)
}

func echoPath(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("content-type", "text/plain")
	_, _ = io.WriteString(w, "you asked for "+r.URL.Path) //nolint:errcheck // test handler
}

func TestClientServerBasicGet(t *testing.T) {
	rig := newLiveRig(t, &http.Server{Handler: http.HandlerFunc(echoPath)}, 5*time.Millisecond, nil)
	resp, body := rig.get(t, "/hello")
	if resp.StatusCode != 200 || resp.ProtoMajor != 2 {
		t.Errorf("status %d over HTTP/%d, want 200 over HTTP/2", resp.StatusCode, resp.ProtoMajor)
	}
	if string(body) != "you asked for /hello" {
		t.Errorf("body = %q", body)
	}
	if ct := resp.Header.Get("content-type"); ct != "text/plain" {
		t.Errorf("content-type = %q", ct)
	}
}

func TestClientServerSequentialRequests(t *testing.T) {
	rig := newLiveRig(t, &http.Server{Handler: http.HandlerFunc(echoPath)}, 2*time.Millisecond, nil)
	for i := 0; i < 20; i++ {
		path := "/obj/" + strconv.Itoa(i)
		if _, body := rig.get(t, path); string(body) != "you asked for "+path {
			t.Fatalf("request %d body = %q", i, body)
		}
	}
	if n := rig.conns.Load(); n != 1 {
		t.Errorf("proxy accepted %d connections, want 1", n)
	}
}

func TestClientServerLargeBody(t *testing.T) {
	want := bytes.Repeat([]byte("abcdefgh"), (300<<10)/8) // spans several windows
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(want) //nolint:errcheck // test handler
	})
	rig := newLiveRig(t, &http.Server{Handler: h}, 5*time.Millisecond, nil)
	if _, body := rig.get(t, "/big"); !bytes.Equal(body, want) {
		t.Errorf("body mismatch: got %d bytes, want %d", len(body), len(want))
	}
}

// getMany fetches paths concurrently and returns the bodies in order.
func (r *liveRig) getMany(t *testing.T, paths []string) [][]byte {
	t.Helper()
	bodies := make([][]byte, len(paths))
	var wg sync.WaitGroup
	for i, p := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest("GET", r.base+p, nil)
			if err != nil {
				t.Error(err)
				return
			}
			_, body, err := r.do(req)
			if err != nil {
				t.Errorf("GET %s: %v", p, err)
			}
			bodies[i] = body
		}()
	}
	wg.Wait()
	return bodies
}

func TestClientServerConcurrentMultiplexing(t *testing.T) {
	// Handlers block until all requests have arrived, guaranteeing
	// concurrent streams; 512-byte flushes force interleaving.
	const n = 8
	var (
		mu      sync.Mutex
		arrived int
		cond    = sync.NewCond(&mu)
	)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		arrived++
		cond.Broadcast()
		for arrived < n {
			cond.Wait()
		}
		mu.Unlock()
		idx := strings.TrimPrefix(r.URL.Path, "/obj/")
		writeFlushed(w, bytes.Repeat([]byte(idx[:1]), 8<<10), 512)
	})
	rig := newLiveRig(t, &http.Server{Handler: h}, 2*time.Millisecond, nil)
	paths := make([]string, n)
	for i := range paths {
		paths[i] = "/obj/" + strconv.Itoa(i)
	}
	for i, body := range rig.getMany(t, paths) {
		if want := bytes.Repeat([]byte{byte('0' + i)}, 8<<10); !bytes.Equal(body, want) {
			t.Errorf("response %d: %d bytes or corrupted, want %d of %q", i, len(body), len(want), want[0])
		}
	}
	if c := rig.conns.Load(); c != 1 {
		t.Errorf("proxy accepted %d connections, want the streams multiplexed on 1", c)
	}
}

func TestManyStreamsStress(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/n/"))
		writeFlushed(w, bytes.Repeat([]byte{byte(n)}, 100+n), 64)
	})
	rig := newLiveRig(t, &http.Server{Handler: h}, time.Millisecond, nil)
	paths := make([]string, 50)
	for i := range paths {
		paths[i] = "/n/" + strconv.Itoa(i)
	}
	for i, body := range rig.getMany(t, paths) {
		if want := bytes.Repeat([]byte{byte(i)}, 100+i); !bytes.Equal(body, want) {
			t.Errorf("response %d: %d bytes or corrupted, want %d", i, len(body), len(want))
		}
	}
}

func TestClientCancelRequest(t *testing.T) {
	started := make(chan struct{})
	reset := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/slow" {
			_, _ = io.WriteString(w, "fast") //nolint:errcheck // test handler
			return
		}
		close(started)
		<-r.Context().Done() // the client's RST_STREAM, through the pacer
		close(reset)
	})
	log := newFrameLog()
	rig := newLiveRig(t, &http.Server{Handler: h}, 2*time.Millisecond, log.observe)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", rig.base+"/slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, _, err := rig.do(req)
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; err == nil {
		t.Error("cancelled request returned a response, want error")
	}
	log.waitFor(t, "RST_STREAM(CANCEL)", func(f Frame) bool {
		rst, ok := f.(*RSTStreamFrame)
		return ok && rst.Code == ErrCodeCancel
	})
	select {
	case <-reset:
	case <-time.After(5 * time.Second):
		t.Fatal("the server never saw the stream reset")
	}
	// The connection must remain usable after a stream reset.
	if resp, body := rig.get(t, "/after"); resp.StatusCode != 200 || string(body) != "fast" {
		t.Errorf("after cancel: status %d, body %q", resp.StatusCode, body)
	}
	if n := rig.conns.Load(); n != 1 {
		t.Errorf("proxy accepted %d connections, want 1", n)
	}
}

func TestServerCustomStatusAndHeaders(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("x-reason", "gone fishing")
		w.WriteHeader(http.StatusNotFound)
	})
	rig := newLiveRig(t, &http.Server{Handler: h}, 5*time.Millisecond, nil)
	resp, body := rig.get(t, "/missing")
	if resp.StatusCode != 404 {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
	if got := resp.Header.Get("x-reason"); got != "gone fishing" {
		t.Errorf("x-reason = %q", got)
	}
	if len(body) != 0 {
		t.Errorf("body = %q, want empty", body)
	}
}

func TestRequestHeadersRoundTrip(t *testing.T) {
	gotHdr := make(chan string, 1)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHdr <- r.Header.Get("x-token")
		_, _ = io.WriteString(w, "ok") //nolint:errcheck // test handler
	})
	log := newFrameLog()
	rig := newLiveRig(t, &http.Server{Handler: h}, 5*time.Millisecond, log.observe)
	req, err := http.NewRequest("GET", rig.base+"/auth", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("x-token", "s3cr3t")
	if _, _, err := rig.do(req); err != nil {
		t.Fatal(err)
	}
	if v := <-gotHdr; v != "s3cr3t" {
		t.Errorf("x-token = %q", v)
	}
	// The pacer saw the request HEADERS it held, and the block it
	// relayed decodes to the header the client set.
	hf := log.waitFor(t, "request HEADERS", func(f Frame) bool {
		_, ok := f.(*HeadersFrame)
		return ok
	}).(*HeadersFrame)
	fields, err := NewHpackDecoder(4096).DecodeFull(hf.BlockFragment)
	if err != nil {
		t.Fatalf("decode relayed header block: %v", err)
	}
	found := false
	for _, hf := range fields {
		found = found || (hf.Name == "x-token" && hf.Value == "s3cr3t")
	}
	if !found {
		t.Errorf("relayed header block %v lacks x-token", fields)
	}
}

func TestPingDoesNotDisturbRequests(t *testing.T) {
	// A client idle for 20 ms while the handler thinks sends a PING
	// health check through the pacer.
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
		echoPath(w, r)
	})
	log := newFrameLog()
	rig := newLiveRig(t, &http.Server{Handler: h}, 5*time.Millisecond, log.observe)
	rig.tr.HTTP2 = &http.HTTP2Config{SendPingTimeout: 20 * time.Millisecond}
	resp, body := rig.get(t, "/x")
	if resp.StatusCode != 200 || string(body) != "you asked for /x" {
		t.Errorf("status %d, body %q", resp.StatusCode, body)
	}
	log.waitFor(t, "a client PING", func(f Frame) bool {
		p, ok := f.(*PingFrame)
		return ok && !p.Ack
	})
}

func TestClientAnswersPing(t *testing.T) {
	// A server that hears nothing for 20 ms pings; the client's ack
	// must come back through the pacer.
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
		echoPath(w, r)
	})
	srv := &http.Server{Handler: h, HTTP2: &http.HTTP2Config{SendPingTimeout: 20 * time.Millisecond}}
	log := newFrameLog()
	rig := newLiveRig(t, srv, 5*time.Millisecond, log.observe)
	if resp, _ := rig.get(t, "/x"); resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	log.waitFor(t, "a PING ack", func(f Frame) bool {
		p, ok := f.(*PingFrame)
		return ok && p.Ack
	})
}

func TestClientAcksSettings(t *testing.T) {
	log := newFrameLog()
	rig := newLiveRig(t, &http.Server{Handler: http.HandlerFunc(echoPath)}, 5*time.Millisecond, log.observe)
	rig.get(t, "/x")
	log.waitFor(t, "a SETTINGS ack", func(f Frame) bool {
		s, ok := f.(*SettingsFrame)
		return ok && s.Ack
	})
}

func TestSettingsSmallInitialWindow(t *testing.T) {
	// A 1 KiB initial window forces WINDOW_UPDATE round trips; the
	// transfer must still complete through the pacer.
	want := bytes.Repeat([]byte("z"), 64<<10)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(want) //nolint:errcheck // test handler
	})
	log := newFrameLog()
	rig := newLiveRig(t, &http.Server{Handler: h}, 5*time.Millisecond, log.observe)
	rig.tr.HTTP2 = &http.HTTP2Config{MaxReceiveBufferPerStream: 1024}
	if _, body := rig.get(t, "/windowed"); !bytes.Equal(body, want) {
		t.Errorf("body mismatch: %d bytes, want %d", len(body), len(want))
	}
	log.waitFor(t, "SETTINGS_INITIAL_WINDOW_SIZE=1024", func(f Frame) bool {
		s, ok := f.(*SettingsFrame)
		if !ok {
			return false
		}
		v, set := s.Value(SettingInitialWindowSize)
		return set && v == 1024
	})
}

func TestClientSendsWindowUpdates(t *testing.T) {
	// With a 16 KiB stream window, a 64 KiB response completes only if
	// the client returns stream credit, through the pacer.
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(make([]byte, 64<<10)) //nolint:errcheck // test handler
	})
	log := newFrameLog()
	rig := newLiveRig(t, &http.Server{Handler: h}, 5*time.Millisecond, log.observe)
	rig.tr.HTTP2 = &http.HTTP2Config{MaxReceiveBufferPerStream: 16 << 10}
	if _, body := rig.get(t, "/stream"); len(body) != 64<<10 {
		t.Errorf("received %d bytes, want %d", len(body), 64<<10)
	}
	hf := log.waitFor(t, "request HEADERS", func(f Frame) bool {
		_, ok := f.(*HeadersFrame)
		return ok
	}).(*HeadersFrame)
	log.waitFor(t, "a stream WINDOW_UPDATE", func(f Frame) bool {
		wu, ok := f.(*WindowUpdateFrame)
		return ok && wu.StreamID == hf.StreamID && wu.Increment > 0
	})
}

func TestFlowControlStallsAndResumes(t *testing.T) {
	// The server grants each upload stream a 1 KiB window: the client
	// stalls after every KiB and resumes on the server's WINDOW_UPDATE,
	// with its DATA crossing the pacer in window-sized frames.
	const total = 200 << 10
	got := make(chan int, 1)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n, _ := io.Copy(io.Discard, r.Body); r.Method == "POST" {
			got <- int(n)
		}
	})
	srv := &http.Server{Handler: h, HTTP2: &http.HTTP2Config{MaxReceiveBufferPerStream: 1024}}
	log := newFrameLog()
	rig := newLiveRig(t, srv, 5*time.Millisecond, log.observe)
	// A first request lets the client learn the 1 KiB window before it
	// uploads; a body sent on the default 64 KiB window would overrun it.
	rig.get(t, "/warm-up")
	if resp, _ := rig.post(t, "/upload", bytes.Repeat([]byte{7}, total)); resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if n := <-got; n != total {
		t.Errorf("server received %d bytes, want %d", n, total)
	}
	sum, frames := 0, 0
	for _, f := range log.snapshot() {
		if d, ok := f.(*DataFrame); ok {
			if len(d.Data) > 1024 {
				t.Fatalf("DATA frame of %d bytes overran the 1 KiB window", len(d.Data))
			}
			sum += len(d.Data)
			frames++
		}
	}
	if sum != total || frames < total/1024 {
		t.Errorf("pacer relayed %d DATA bytes in %d frames, want %d in at least %d", sum, frames, total, total/1024)
	}
}

func TestPostBodyDelivered(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != "POST" {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		// Echo the body back reversed, proving the handler read all of
		// it.
		in, _ := io.ReadAll(r.Body)
		out := make([]byte, len(in))
		for i, b := range in {
			out[len(out)-1-i] = b
		}
		_, _ = w.Write(out) //nolint:errcheck // test handler
	})
	rig := newLiveRig(t, &http.Server{Handler: h}, 5*time.Millisecond, nil)
	body := []byte("survey-answer=party-C&q2=yes")
	_, got := rig.post(t, "/submit", body)
	want := make([]byte, len(body))
	for i, b := range body {
		want[len(want)-1-i] = b
	}
	if !bytes.Equal(got, want) {
		t.Errorf("echo = %q, want %q", got, want)
	}
}

func TestPostLargeBodySpansWindows(t *testing.T) {
	const size = 150 << 10 // > the 64 KiB initial window
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		w.Header().Set("x-len", strconv.FormatInt(n, 10))
		_, _ = io.WriteString(w, "ok") //nolint:errcheck // test handler
	})
	rig := newLiveRig(t, &http.Server{Handler: h}, 5*time.Millisecond, nil)
	resp, _ := rig.post(t, "/upload", bytes.Repeat([]byte("z"), size))
	if got := resp.Header.Get("x-len"); got != strconv.Itoa(size) {
		t.Errorf("server saw %s bytes, want %d", got, size)
	}
}

func TestPostEmptyBody(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in, _ := io.ReadAll(r.Body)
		_, _ = io.WriteString(w, strconv.Itoa(len(in))) //nolint:errcheck // test handler
	})
	rig := newLiveRig(t, &http.Server{Handler: h}, 5*time.Millisecond, nil)
	if _, body := rig.post(t, "/empty", nil); string(body) != "0" {
		t.Errorf("body length reported %q, want 0", body)
	}
}

package wire

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRouteReqRoundTrip(t *testing.T) {
	cases := [][2][]int{
		{{0, 0}, {7, 7}},
		{{1}, {11}},
		{{3, 0, 65535}, {0, 65535, 2}},
	}
	for _, c := range cases {
		buf, err := AppendRouteReq(nil, c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		typ, p, rest, err := DecodeFrame(buf)
		if err != nil || typ != TRouteReq || len(rest) != 0 {
			t.Fatalf("decode: typ=%d rest=%d err=%v", typ, len(rest), err)
		}
		src, dst, err := ParseRouteReq(p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(src, c[0]) || !reflect.DeepEqual(dst, c[1]) {
			t.Fatalf("round trip: %v->%v became %v->%v", c[0], c[1], src, dst)
		}
	}
	// Rejections.
	if _, err := AppendRouteReq(nil, []int{1, 2}, []int{3}); err == nil {
		t.Error("mismatched dims accepted")
	}
	if _, err := AppendRouteReq(nil, []int{-1}, []int{0}); err == nil {
		t.Error("negative coordinate accepted")
	}
	if _, err := AppendRouteReq(nil, []int{1 << 16}, []int{0}); err == nil {
		t.Error("oversize coordinate accepted")
	}
	if _, err := AppendRouteReq(nil, nil, nil); err == nil {
		t.Error("zero-dimensional request accepted")
	}
}

func TestRouteRespRoundTrip(t *testing.T) {
	cases := []Answer{
		{Code: CodeFound, Hops: 14, Turns: 1, NVias: 1, Gen: 7, Via: []int{3, 4}},
		{Code: CodeNoRoute, Gen: 1 << 60, Via: nil},
		{Code: CodeFound, Hops: 9, Turns: 2, NVias: 2, Via: []int{1, 2, 3, 4}},
	}
	for _, want := range cases {
		d := 2
		buf, err := AppendRouteResp(nil, &want, d)
		if err != nil {
			t.Fatal(err)
		}
		typ, p, _, err := DecodeFrame(buf)
		if err != nil || typ != TRouteResp {
			t.Fatalf("decode: typ=%d err=%v", typ, err)
		}
		var got Answer
		if err := ParseRouteResp(p, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: %+v became %+v", want, got)
		}
	}
	bad := Answer{NVias: 1, Via: []int{1}} // len(Via) != NVias*d for d=2
	if _, err := AppendRouteResp(nil, &bad, 2); err == nil {
		t.Error("inconsistent via length accepted")
	}
}

func TestHeaderValidation(t *testing.T) {
	good, _ := AppendRouteReq(nil, []int{1, 2}, []int{3, 4})
	for name, mut := range map[string]func([]byte){
		"magic":    func(b []byte) { b[0] = 0x00 },
		"version":  func(b []byte) { b[1] = 9 },
		"type":     func(b []byte) { b[2] = 77 },
		"reserved": func(b []byte) { b[3] = 1 },
		"length":   func(b []byte) { b[4] = 0xFF; b[5] = 0xFF; b[6] = 0xFF; b[7] = 0x7F },
	} {
		b := append([]byte(nil), good...)
		mut(b)
		if _, _, _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s corruption accepted", name)
		}
	}
	if _, _, _, err := DecodeFrame(good[:HeaderLen-1]); err == nil {
		t.Error("short header accepted")
	}
	if _, _, _, err := DecodeFrame(good[:len(good)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
}

// echoBackend answers every query with a fixed shape derived from the
// request, so the test can validate request plumbing.
type echoBackend struct{ d int }

func (e echoBackend) Dims() int { return e.d }
func (e echoBackend) Query(src, dst []int, ans *Answer) {
	ans.Code = CodeFound
	ans.Hops = src[0] + dst[0]
	ans.Turns = 0
	ans.Gen = 42
	ans.NVias = 1
	ans.Via = append(ans.Via[:0], src...)
}

func TestServeProtocolErrors(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, echoBackend{d: 2})

	// A garbage header draws an error frame, then the connection closes.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("GET / HTTP/1.1\r\n"))
	c := NewClient(conn)
	var ans Answer
	if err := c.Recv(&ans); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("garbage header: %v", err)
	}

	// A response frame sent to the server is a protocol error too.
	conn2, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	frame, _ := AppendRouteResp(nil, &Answer{Code: CodeFound, NVias: 0, Via: []int{}}, 2)
	conn2.Write(frame)
	c2 := NewClient(conn2)
	if err := c2.Recv(&ans); err == nil || !strings.Contains(err.Error(), "route request") {
		t.Fatalf("response-to-server: %v", err)
	}
}

func TestErrorFrameTruncation(t *testing.T) {
	msg := strings.Repeat("x", MaxPayload+10)
	b := AppendError(nil, msg)
	_, p, _, err := DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != MaxPayload || !bytes.Equal(p, []byte(msg[:MaxPayload])) {
		t.Fatalf("error payload len %d", len(p))
	}
}

// A positive Dial timeout bounds each operation, not the connection's
// lifetime: a client that idles past the timeout must still route.
func TestDialTimeoutIsPerOperation(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l, echoBackend{d: 2})

	c, err := Dial(l.Addr().String(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	time.Sleep(250 * time.Millisecond)
	var ans Answer
	if err := c.Route([]int{3, 0}, []int{4, 0}, &ans); err != nil {
		t.Fatalf("route after idling past the timeout: %v", err)
	}
	if ans.Code != CodeFound || ans.Hops != 7 {
		t.Fatalf("answer %+v", ans)
	}
}

// A server that accepts but never answers must still time the client out.
func TestDialTimeoutSilentServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err == nil {
			accepted <- conn // held open, never read or written
		}
	}()

	c, err := Dial(l.Addr().String(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	var ans Answer
	err = c.Route([]int{0, 0}, []int{1, 1}, &ans)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("route against a silent server: %v, want a timeout", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("timed out after %v", d)
	}
	(<-accepted).Close()
}

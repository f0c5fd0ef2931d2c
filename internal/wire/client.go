package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"
)

// Client is one connection speaking the binary route protocol. It is not
// safe for concurrent use; open one Client per goroutine (the protocol is
// cheap enough that connections are the unit of parallelism).
//
// The pipelined API is Send / Flush / Recv: responses arrive in request
// order, so a caller may issue many Sends before draining with Recvs.
// Route is the one-shot convenience wrapper.
type Client struct {
	conn    net.Conn
	timeout time.Duration // per-operation I/O bound; 0 means none
	br      *bufio.Reader
	bw      *bufio.Writer
	header  []byte
	payload []byte
	out     []byte
}

// Dial connects to a wire server. A zero timeout means no limit; a
// positive one bounds the dial and then each write of buffered requests
// and each Recv on its own, so an idle connection never expires.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	var (
		conn net.Conn
		err  error
	)
	if timeout > 0 {
		conn, err = net.DialTimeout("tcp", addr, timeout)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	c := NewClient(conn)
	c.timeout = timeout
	return c, nil
}

// NewClient wraps an established connection (ownership transfers; Close
// closes it).
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, connBufSize),
		bw:      bufio.NewWriterSize(conn, connBufSize),
		header:  make([]byte, HeaderLen),
		payload: make([]byte, 0, 256),
		out:     make([]byte, 0, 256),
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Send enqueues one route request. The frame may sit in the client's
// buffer until Flush (or until the buffer fills).
func (c *Client) Send(src, dst []int) error {
	var err error
	if c.out, err = AppendRouteReq(c.out[:0], src, dst); err != nil {
		return err
	}
	if len(c.out) > c.bw.Available() {
		// The write below flushes the buffer to the socket.
		if err := c.writeDeadline(); err != nil {
			return err
		}
	}
	_, err = c.bw.Write(c.out)
	return err
}

// Flush pushes every buffered request to the server.
func (c *Client) Flush() error {
	if err := c.writeDeadline(); err != nil {
		return err
	}
	return c.bw.Flush()
}

// writeDeadline bounds the next socket write by the client's timeout.
func (c *Client) writeDeadline() error {
	if c.timeout <= 0 {
		return nil
	}
	return c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
}

// Recv reads the next response into ans (reusing ans.Via). A server error
// frame is returned as a Go error; the connection is then unusable.
func (c *Client) Recv(ans *Answer) error {
	if c.timeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return err
		}
	}
	if _, err := io.ReadFull(c.br, c.header); err != nil {
		return err
	}
	typ, n, err := parseHeader(c.header)
	if err != nil {
		return err
	}
	if cap(c.payload) < n {
		c.payload = make([]byte, n)
	}
	c.payload = c.payload[:n]
	if _, err := io.ReadFull(c.br, c.payload); err != nil {
		return err
	}
	switch typ {
	case TRouteResp:
		return ParseRouteResp(c.payload, ans)
	case TError:
		return fmt.Errorf("wire: server error: %s", c.payload)
	}
	return fmt.Errorf("wire: unexpected frame type %d", typ)
}

// Route sends one request and waits for its response.
func (c *Client) Route(src, dst []int, ans *Answer) error {
	if err := c.Send(src, dst); err != nil {
		return err
	}
	if err := c.Flush(); err != nil {
		return err
	}
	return c.Recv(ans)
}

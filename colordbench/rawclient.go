package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// rawClient is a wrk-style HTTP/1.1 driver: one persistent TCP connection,
// preformatted request bytes, and a minimal response reader. net/http's
// client costs more per request than colord's whole hit path, so the
// benchmark drives the server with this instead. Unlike a load generator it
// keeps every response body (in a reused buffer), because the benchmark
// checks what the server answered, not only how fast.
//
// There are no retries: /v1/mutate is not idempotent, and a benchmark
// request that fails is counted, not hidden.
type rawClient struct {
	conn  net.Conn
	br    *bufio.Reader
	body  []byte
	local string // the connection's local address, as the server sees it
}

// rawResponse is one answer. body aliases the client's buffer and is valid
// until the next call to do.
type rawResponse struct {
	status  int
	outcome byte // first byte of X-Colord-Cache: 'h'it, 'c'oalesced, 'm'iss, 0 = absent
	body    []byte
}

func dialRaw(addr string) (*rawClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &rawClient{
		conn:  conn,
		br:    bufio.NewReaderSize(conn, 16<<10),
		body:  make([]byte, 0, 16<<10),
		local: conn.LocalAddr().String(),
	}, nil
}

func (c *rawClient) close() { c.conn.Close() }

// formatRequest renders the full wire form of a POST once, so the timed send
// path is a single Write of prebuilt bytes.
func formatRequest(host, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, host, len(body))
	b.Write(body)
	return b.Bytes()
}

// do sends one preformatted request and reads its response.
func (c *rawClient) do(wire []byte) (rawResponse, error) {
	if _, err := c.conn.Write(wire); err != nil {
		return rawResponse{}, err
	}
	return c.readResponse()
}

func (c *rawClient) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

func (c *rawClient) readResponse() (rawResponse, error) {
	line, err := c.readLine()
	if err != nil {
		return rawResponse{}, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return rawResponse{}, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return rawResponse{}, fmt.Errorf("malformed status line %q", line)
	}
	resp := rawResponse{status: status}
	length, chunked := -1, false
	for {
		if line, err = c.readLine(); err != nil {
			return rawResponse{}, err
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		name, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case asciiEqualFold(name, "content-length"):
			if length, err = strconv.Atoi(string(val)); err != nil {
				return rawResponse{}, fmt.Errorf("bad Content-Length %q", val)
			}
		case asciiEqualFold(name, "transfer-encoding"):
			chunked = asciiEqualFold(val, "chunked")
		case asciiEqualFold(name, "x-colord-cache"):
			if len(val) > 0 {
				resp.outcome = val[0]
			}
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		err = c.readChunked()
	case length >= 0:
		err = c.readN(length)
	default:
		return rawResponse{}, fmt.Errorf("response with no framing (status %d)", status)
	}
	if err != nil {
		return rawResponse{}, err
	}
	resp.body = c.body
	return resp, nil
}

// readN appends the next n body bytes to c.body.
func (c *rawClient) readN(n int) error {
	start := len(c.body)
	if cap(c.body)-start < n {
		grown := make([]byte, start, 2*(start+n))
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:start+n]
	_, err := io.ReadFull(c.br, c.body[start:])
	return err
}

func (c *rawClient) readChunked() error {
	for {
		line, err := c.readLine()
		if err != nil {
			return err
		}
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
		if err != nil || size < 0 {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			for { // trailers until the blank line
				line, err := c.readLine()
				if err != nil {
					return err
				}
				if len(line) == 0 {
					return nil
				}
			}
		}
		if err := c.readN(int(size)); err != nil {
			return err
		}
		if _, err := c.readLine(); err != nil { // chunk-terminating CRLF
			return err
		}
	}
}

// asciiEqualFold reports whether a equals the lowercase ASCII string b,
// ignoring case.
func asciiEqualFold(a []byte, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca := a[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if ca != b[i] {
			return false
		}
	}
	return true
}

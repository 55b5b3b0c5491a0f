package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"

	"sqlcm/internal/lock"
	"sqlcm/internal/server"
	"sqlcm/internal/server/errcode"
)

func TestClassify(t *testing.T) {
	wire := func(code, msg string) error { return &server.WireError{Severity: "ERROR", Code: code, Message: msg} }
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"embedded deadlock", fmt.Errorf("update: %w", lock.ErrDeadlock), classDeadlock},
		{"deadlock over the wire", wire(errcode.SyntaxOrExec.SQLSTATE, lock.ErrDeadlock.Error()), classDeadlock},
		{"embedded lock timeout", fmt.Errorf("update: %w", lock.ErrTimeout), classTimeout},
		{"lock timeout over the wire", wire(errcode.SyntaxOrExec.SQLSTATE, lock.ErrTimeout.Error()), classTimeout},
		{"statement cancelled", wire(errcode.QueryCancelled.SQLSTATE, "cancelled"), classTimeout},
		{"shed", wire(errcode.Overloaded.SQLSTATE, "overloaded"), classShed},
		{"too many connections", wire(errcode.TooManyConns.SQLSTATE, "full"), classReject},
		{"EOF", io.EOF, classReset},
		{"unexpected EOF", fmt.Errorf("read: %w", io.ErrUnexpectedEOF), classReset},
		{"closed connection", fmt.Errorf("write: %w", net.ErrClosed), classReset},
		{"connection reset", fmt.Errorf("read: %w", syscall.ECONNRESET), classReset},
		{"unknown", errors.New("boom"), classOther},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("%s: classify(%v) = %s, want %s", c.name, c.err, classNames[got], classNames[c.want])
		}
	}
}

package rpc

import (
	"context"
	"errors"
	"net"
	"net/http"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/platform"
)

// A dial the in-memory network refuses — nothing bound to the name, or the
// name's listener closed — fails the way a refused TCP connect does: a
// *net.OpError with Op "dial", which the client classifies as never sent,
// so a mutation is retried over it.
func TestMemNetRefusedDialIsNeverSent(t *testing.T) {
	mn := NewMemNet()
	ln, err := mn.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: NewServer(platform.New(platform.Config{Seed: 1}), "", nil)}
	go hs.Serve(ln)
	served := ln.Addr().String()
	cl := NewClient("http://"+served, Options{Transport: mn.Transport(), MaxRetries: 2, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond})
	defer cl.Close()
	register := func() error {
		_, err := Do(context.Background(), cl, OpRegister, httpapi.RegisterAdvertiserRequest{Name: "acme"})
		return err
	}
	if err := register(); err != nil {
		t.Fatalf("register on a served name: %v", err)
	}
	if _, err := mn.Listen(served); err == nil {
		t.Fatal("a bound name was bound twice")
	}
	hs.Close()

	for _, addr := range []string{"pipe:404", served} {
		_, err := mn.DialContext(context.Background(), "tcp", addr)
		var op *net.OpError
		if !errors.As(err, &op) || op.Op != "dial" {
			t.Fatalf("dial %s: %v, want a *net.OpError with Op \"dial\"", addr, err)
		}
		if !errors.Is(classifyNetErr(err), errNotSent) {
			t.Fatalf("dial %s: classified %v, want it never sent", addr, classifyNetErr(err))
		}
	}
	var ce *CallError
	if err := register(); !errors.As(err, &ce) || ce.Attempts != 3 || !errors.Is(err, errNotSent) {
		t.Fatalf("mutation to a closed name: %v, want 3 attempts of a never-sent call", err)
	}
}

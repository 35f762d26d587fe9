package core

import "testing"

func TestContractOpLookup(t *testing.T) {
	c := echoContract("test.Echo")
	if op, ok := c.Op("echo"); !ok || op.In != "string" {
		t.Fatalf("Op(echo) = %+v, %v", op, ok)
	}
	if _, ok := c.Op("nosuch"); ok {
		t.Fatal("Op(nosuch) should be absent")
	}
	if op, ok := c.OpBySemantic("test.fail"); !ok || op.Name != "fail" {
		t.Fatalf("OpBySemantic = %+v, %v", op, ok)
	}
	if _, ok := c.OpBySemantic(""); ok {
		t.Fatal("empty semantic tag must not match")
	}
}

func TestContractClone(t *testing.T) {
	c := echoContract("test.Echo")
	cp := c.Clone()
	cp.Operations[0].Name = "mutated"
	if c.Operations[0].Name == "mutated" {
		t.Fatal("clone must be deep")
	}
	if (*Contract)(nil).Clone() != nil {
		t.Fatal("nil clone must be nil")
	}
}

func TestTypeName(t *testing.T) {
	if got := TypeName(nil); got != "nil" {
		t.Fatalf("TypeName(nil) = %q", got)
	}
	if got := TypeName("x"); got != "string" {
		t.Fatalf("TypeName(string) = %q", got)
	}
	type local struct{}
	if got := TypeName(local{}); got != "repro/internal/core.local" {
		t.Fatalf("TypeName(local) = %q", got)
	}
	if got := TypeName(&local{}); got != "repro/internal/core.local" {
		t.Fatalf("TypeName(*local) = %q (pointers unwrap)", got)
	}
}

package core

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
)

// legacyContract mimics an older service with different op names and
// payload shapes but identical semantics.
func legacyContract() *Contract {
	return &Contract{
		Interface: "test.LegacyEcho",
		Operations: []OpSpec{
			{Name: "reverberate", In: "[]byte", Out: "[]byte", Semantic: "test.echo"},
			{Name: "explode", In: "nil", Out: "nil", Semantic: "test.fail"},
		},
	}
}

func newLegacyService(t testing.TB) *BaseService {
	t.Helper()
	s := NewService("legacy", legacyContract())
	s.Handle("reverberate", func(ctx context.Context, req any) (any, error) {
		b, ok := req.([]byte)
		if !ok {
			return nil, &RequestError{Op: "reverberate", Want: "[]byte", Got: TypeName(req)}
		}
		return append([]byte("legacy:"), b...), nil
	})
	s.Handle("explode", func(ctx context.Context, req any) (any, error) {
		return nil, errors.New("legacy boom")
	})
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

func repoWithByteTransforms() *Repository {
	repo := NewRepository()
	repo.PutTransform("string", "[]byte", func(v any) (any, error) {
		s, ok := v.(string)
		if !ok {
			return nil, errors.New("not a string")
		}
		return []byte(s), nil
	})
	repo.PutTransform("[]byte", "string", func(v any) (any, error) {
		b, ok := v.([]byte)
		if !ok {
			return nil, errors.New("not bytes")
		}
		return string(b), nil
	})
	return repo
}

func TestGenerateAdaptorBySemantic(t *testing.T) {
	ctx := context.Background()
	legacy := newLegacyService(t)
	repo := repoWithByteTransforms()
	required := &Contract{
		Interface:  "test.Echo",
		Operations: []OpSpec{{Name: "echo", In: "string", Out: "string", Semantic: "test.echo"}},
	}
	ad, err := GenerateAdaptor("ad", required, legacy.Contract(), legacy, repo)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ad.Invoke(ctx, "echo", "hi")
	if err != nil {
		t.Fatal(err)
	}
	if out != "legacy:hi" {
		t.Fatalf("out = %v", out)
	}
	if got := ad.mappings["echo"].TargetOp; got != "reverberate" {
		t.Fatalf("mapping = %v", got)
	}
	if _, err := ad.Invoke(ctx, "nosuch", nil); !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("err = %v", err)
	}
	if ad.Contract().Interface != "test.Echo" {
		t.Fatal("adaptor must present the required contract")
	}
	if ad.State() != StateRunning {
		t.Fatal("adaptors are always running")
	}
}

func TestGenerateAdaptorByNameFallback(t *testing.T) {
	ctx := context.Background()
	// Provider has same op name, same types, no semantic tags.
	prov := NewService("p", &Contract{
		Interface:  "test.Other",
		Operations: []OpSpec{{Name: "echo", In: "string", Out: "string"}},
	})
	prov.Handle("echo", func(ctx context.Context, req any) (any, error) { return "p:" + req.(string), nil })
	_ = prov.Start(ctx)
	required := &Contract{
		Interface:  "test.Echo",
		Operations: []OpSpec{{Name: "echo", In: "string", Out: "string"}},
	}
	ad, err := GenerateAdaptor("ad", required, prov.Contract(), prov, NewRepository())
	if err != nil {
		t.Fatal(err)
	}
	out, err := ad.Invoke(ctx, "echo", "x")
	if err != nil || out != "p:x" {
		t.Fatalf("out = %v, %v", out, err)
	}
}

func TestGenerateAdaptorFailures(t *testing.T) {
	legacy := newLegacyService(t)
	required := &Contract{
		Interface:  "test.Echo",
		Operations: []OpSpec{{Name: "echo", In: "string", Out: "string", Semantic: "test.echo"}},
	}
	// Without transformation schemas, payloads cannot be bridged.
	if _, err := GenerateAdaptor("ad", required, legacy.Contract(), legacy, NewRepository()); !errors.Is(err, ErrNoAdaptation) {
		t.Fatalf("err = %v, want ErrNoAdaptation", err)
	}
	// No matching operation at all.
	unrelated := &Contract{
		Interface:  "test.Echo",
		Operations: []OpSpec{{Name: "frobnicate", In: "int", Out: "int", Semantic: "test.frob"}},
	}
	if _, err := GenerateAdaptor("ad", unrelated, legacy.Contract(), legacy, repoWithByteTransforms()); !errors.Is(err, ErrNoAdaptation) {
		t.Fatalf("err = %v", err)
	}
	// Nil contracts.
	if _, err := GenerateAdaptor("ad", nil, legacy.Contract(), legacy, NewRepository()); !errors.Is(err, ErrNoAdaptation) {
		t.Fatalf("err = %v", err)
	}
}

// Property: the generated string<->[]byte adaptor round-trips any
// payload unchanged apart from the service's own prefix.
func TestAdaptorRoundTripQuick(t *testing.T) {
	legacy := newLegacyService(t)
	repo := repoWithByteTransforms()
	required := &Contract{
		Interface:  "test.Echo",
		Operations: []OpSpec{{Name: "echo", In: "string", Out: "string", Semantic: "test.echo"}},
	}
	ad, err := GenerateAdaptor("ad", required, legacy.Contract(), legacy, repo)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f := func(payload string) bool {
		out, err := ad.Invoke(ctx, "echo", payload)
		return err == nil && out == "legacy:"+payload
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRepositoryContractsAndTransforms(t *testing.T) {
	repo := NewRepository()
	if err := repo.PutContract(echoContract("a.I")); err != nil {
		t.Fatal(err)
	}
	if err := repo.PutContract(echoContract("b.I")); err != nil {
		t.Fatal(err)
	}
	if err := repo.PutContract(&Contract{}); err == nil {
		t.Fatal("invalid contract must be rejected")
	}
	got, err := repo.GetContract("a.I")
	if err != nil || got.Interface != "a.I" {
		t.Fatalf("GetContract = %v, %v", got, err)
	}
	// Mutating the returned contract must not affect the stored copy.
	got.Operations[0].Name = "mutated"
	again, _ := repo.GetContract("a.I")
	if again.Operations[0].Name == "mutated" {
		t.Fatal("repository must hand out clones")
	}
	if _, err := repo.GetContract("zzz"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	// Identity transform always available; registered transform counted.
	if _, ok := repo.Transform("x", "x"); !ok {
		t.Fatal("identity transform missing")
	}
	if _, ok := repo.Transform("x", "y"); ok {
		t.Fatal("unregistered transform must be absent")
	}
	repo.PutTransform("x", "y", func(v any) (any, error) { return v, nil })
	if _, ok := repo.Transform("x", "y"); !ok {
		t.Fatal("registered transform missing")
	}
}

package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

func validSpec() DesignSpec {
	return DesignSpec{
		Name:                   "reference",
		DeviceAuth:             AuthDevToken,
		Binding:                BindACLApp,
		UnbindForms:            []UnbindForm{UnbindDevIDUserToken},
		CheckBoundUserOnBind:   true,
		CheckBoundUserOnUnbind: true,
	}
}

func TestDesignSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*DesignSpec)
		wantErr error
	}{
		{"valid", func(d *DesignSpec) {}, nil},
		{"missing name", func(d *DesignSpec) { d.Name = "" }, errNoName},
		{"bad auth", func(d *DesignSpec) { d.DeviceAuth = 0 }, errBadAuthMode},
		{"unknown auth without assumption", func(d *DesignSpec) { d.DeviceAuth = AuthUnknown }, errBadAssumedAuth},
		{"unknown auth with assumption", func(d *DesignSpec) {
			d.DeviceAuth = AuthUnknown
			d.AssumedAuth = AuthDevID
		}, nil},
		{"bad binding", func(d *DesignSpec) { d.Binding = 0 }, errBadBinding},
		{"bad unbind form", func(d *DesignSpec) { d.UnbindForms = []UnbindForm{99} }, errBadUnbindForm},
		{"replace form without replace flag", func(d *DesignSpec) {
			d.UnbindForms = []UnbindForm{UnbindReplaceByBind}
		}, errReplaceConflict},
		{"replace form with replace flag", func(d *DesignSpec) {
			d.UnbindForms = []UnbindForm{UnbindReplaceByBind}
			d.ReplaceOnBind = true
		}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := validSpec()
			tt.mutate(&spec)
			err := spec.Validate()
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate() = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestEffectiveAuth(t *testing.T) {
	spec := validSpec()
	if got := spec.EffectiveAuth(); got != AuthDevToken {
		t.Errorf("EffectiveAuth() = %v, want DevToken", got)
	}
	spec.DeviceAuth = AuthUnknown
	spec.AssumedAuth = AuthDevID
	if got := spec.EffectiveAuth(); got != AuthDevID {
		t.Errorf("EffectiveAuth() with unknown = %v, want DevId", got)
	}
}

func TestSupportsUnbind(t *testing.T) {
	spec := validSpec()
	spec.UnbindForms = []UnbindForm{UnbindDevIDUserToken, UnbindDevIDAlone}
	if !spec.SupportsUnbind(UnbindDevIDAlone) {
		t.Error("SupportsUnbind(DevId) = false, want true")
	}
	if spec.SupportsUnbind(UnbindReplaceByBind) {
		t.Error("SupportsUnbind(replace) = true, want false")
	}
}

// TestSetup places each step of the owner's setup sequence: the app binds
// before the device registers unless OnlineBeforeBind, the button window
// or the source-IP check asks for the registration first; a device-sent
// bind always follows it; the press and the reset come from their flags.
func TestSetup(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*DesignSpec)
		want Setup
	}{
		{"app binds first", func(*DesignSpec) {}, Setup{Binder: SenderApp}},
		{"online before bind", func(d *DesignSpec) { d.OnlineBeforeBind = true }, Setup{Binder: SenderApp, RegisterFirst: true}},
		{"source IP", func(d *DesignSpec) { d.SourceIPCheck = true }, Setup{Binder: SenderApp, RegisterFirst: true}},
		{"button window", func(d *DesignSpec) { d.BindButtonWindow = true }, Setup{Binder: SenderApp, RegisterFirst: true, Press: true}},
		{"reset", func(d *DesignSpec) { d.ResetUnbindsOnSetup = true }, Setup{Reset: true, Binder: SenderApp}},
		{"device binds", func(d *DesignSpec) { d.Binding = BindACLDevice }, Setup{Binder: SenderDevice, RegisterFirst: true}},
		{"capability with button", func(d *DesignSpec) { d.Binding, d.BindButtonWindow = BindCapability, true },
			Setup{Binder: SenderDevice, RegisterFirst: true, Press: true}},
	} {
		d := validSpec()
		tc.set(&d)
		if got := d.Setup(); got != tc.want {
			t.Errorf("%s: Setup() = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestUnbindNotation(t *testing.T) {
	tests := []struct {
		forms []UnbindForm
		want  string
	}{
		{nil, "N.A."},
		{[]UnbindForm{UnbindDevIDUserToken}, "(DevId, UserToken)"},
		{[]UnbindForm{UnbindDevIDUserToken, UnbindDevIDAlone}, "(DevId, UserToken) & DevId"},
	}
	for _, tt := range tests {
		spec := validSpec()
		spec.UnbindForms = tt.forms
		if got := spec.UnbindNotation(); got != tt.want {
			t.Errorf("UnbindNotation(%v) = %q, want %q", tt.forms, got, tt.want)
		}
	}
}

func TestNotationTable(t *testing.T) {
	table := NotationTable()
	if len(table) != 9 {
		t.Fatalf("NotationTable() has %d rows, want 9 (Table I)", len(table))
	}
	wantFirst, wantLast := "Status", "UserPw"
	if table[0].Notation != wantFirst || table[len(table)-1].Notation != wantLast {
		t.Errorf("table order = %v .. %v, want %v .. %v",
			table[0].Notation, table[len(table)-1].Notation, wantFirst, wantLast)
	}
	for _, row := range table {
		if row.Description == "" {
			t.Errorf("notation %v has empty description", row.Notation)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if AuthDevID.String() != "DevId" || AuthDevToken.String() != "DevToken" ||
		AuthPublicKey.String() != "PublicKey" || AuthUnknown.String() != "O" {
		t.Error("DeviceAuthMode strings do not match paper notation")
	}
	if BindACLApp.String() != "ACL (sent by the app)" {
		t.Errorf("BindACLApp.String() = %q", BindACLApp.String())
	}
	if SenderDevice.String() != "device" || SenderApp.String() != "app" {
		t.Error("Sender strings are wrong")
	}
}

// latticeCode numbers a design by what EachDesign tells apart: its
// effective auth mode, its binding, its set of unbind forms and every
// flag. It is below 1<<21.
func latticeCode(d DesignSpec) int {
	forms := 0
	for _, f := range d.UnbindForms {
		forms |= 1 << (f - 1)
	}
	c := (int(d.EffectiveAuth())*4+int(d.Binding))*8 + forms
	v := reflect.ValueOf(d)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Bool {
			c *= 2
			if f.Bool() {
				c++
			}
		}
	}
	return c
}

// TestEachDesign: every yielded spec validates and none repeats; the
// count is the product Validate's rules give; and a seeded sample of raw
// field draws that Validate accepts is always found among the yields.
func TestEachDesign(t *testing.T) {
	yielded := make([]bool, 1<<21)
	count := 0
	EachDesign(func(d DesignSpec) bool {
		if err := d.Validate(); err != nil {
			t.Fatalf("%+v: %v", d, err)
		}
		c := latticeCode(d)
		if yielded[c] {
			t.Fatalf("%+v yielded twice", d)
		}
		yielded[c] = true
		count++
		return true
	})
	// Three concrete auth modes (AuthUnknown only relabels one); a
	// post-binding token only beside app-sent ACL binding, so 2 + 1 + 1
	// binding choices; the unbind forms as a set, where the replace form
	// forces ReplaceOnBind: 4 sets without it × 2 + 4 with it × 1 = 12;
	// the other twelve flags free.
	if want := 3 * 4 * 12 << 12; count != want {
		t.Errorf("%d designs, want %d", count, want)
	}

	rng := rand.New(rand.NewSource(31))
	for accepted := 0; accepted < 5000; {
		d := DesignSpec{
			Name:        "draw",
			DeviceAuth:  DeviceAuthMode(rng.Intn(6)),
			AssumedAuth: DeviceAuthMode(rng.Intn(6)),
			Binding:     BindMechanism(rng.Intn(5)),
		}
		for n := rng.Intn(5); n > 0; n-- {
			d.UnbindForms = append(d.UnbindForms, UnbindForm(rng.Intn(5)))
		}
		v := reflect.ValueOf(&d).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Bool {
				f.SetBool(rng.Intn(2) == 0)
			}
		}
		if d.Validate() != nil {
			continue
		}
		accepted++
		if !yielded[latticeCode(d)] {
			t.Fatalf("%+v validates but was never yielded", d)
		}
	}

	n := 0
	EachDesign(func(DesignSpec) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("yield returned false at the third design, EachDesign went on to %d", n)
	}
}

// TestDesignSpecEqual: Equal tells apart two designs that differ in any
// one field — a field added to DesignSpec and forgotten by Equal fails
// here — and compares UnbindForms by content, not by slice identity.
func TestDesignSpecEqual(t *testing.T) {
	d := validSpec()
	same := d
	same.UnbindForms = append([]UnbindForm(nil), d.UnbindForms...)
	if !d.Equal(same) {
		t.Error("a design with a copy of its unbind forms is not Equal to it")
	}
	typ := reflect.TypeOf(d)
	for i := 0; i < typ.NumField(); i++ {
		other := d
		other.UnbindForms = append([]UnbindForm(nil), d.UnbindForms...)
		f := reflect.ValueOf(&other).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.String:
			f.SetString(f.String() + "'")
		case reflect.Slice:
			f.Set(reflect.Append(f, reflect.ValueOf(UnbindDevIDAlone)))
		default:
			t.Fatalf("field %s: kind %v not covered", typ.Field(i).Name, f.Kind())
		}
		if d.Equal(other) || other.Equal(d) {
			t.Errorf("designs differing in %s are Equal", typ.Field(i).Name)
		}
	}
}

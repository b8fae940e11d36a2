package main

import (
	"strings"
	"syscall"
	"testing"
	"time"

	"neurocuts/internal/rule"
)

func TestParseTableSpecs(t *testing.T) {
	specs, err := parseTableSpecs("acl=backend:hicuts,family:acl1,size:200; fw=backend:tss,family:fw2,size:100")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].name != "acl" || specs[1].name != "fw" {
		t.Fatalf("specs = %+v", specs)
	}
	if specs[0].kv["backend"] != "hicuts" || specs[1].kv["size"] != "100" {
		t.Fatalf("kv = %+v", specs)
	}
	for _, bad := range []string{
		"",
		"noequals",
		"a=backend:hicuts;a=backend:tss", // duplicate name
		"a=bogus:1",                      // unknown key
		"a=online:true",                  // no key selects a write path
		"a=backend",                      // setting without value
	} {
		if _, err := parseTableSpecs(bad); err == nil {
			t.Errorf("parseTableSpecs(%q) should fail", bad)
		}
	}
}

// TestTablesDaemon boots a two-table daemon, queries the default table
// (table 0) and a named one over one connection, and shuts it down
// gracefully.
func TestTablesDaemon(t *testing.T) {
	addr, sig, errCh, out := startDaemon(t, []string{
		"-tables", "acl=backend:tss,family:acl1,size:150;fw=backend:linear,family:fw2,size:80",
		"-listen", "127.0.0.1:0",
	})

	// Table 0 is the default table (acl).
	v2 := dialDaemon(t, addr)
	if _, _, _, err := v2.Classify(parsePacket(t, "10.0.0.1 192.168.1.1 1234 80 6")); err != nil {
		t.Fatal(err)
	}

	// List tables and classify against the non-default table.
	tables, err := v2.ListTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || !tables[0].Default {
		t.Fatalf("tables = %+v (want acl default, fw secondary)", tables)
	}
	fwID, err := v2.ResolveTable("fw")
	if err != nil {
		t.Fatal(err)
	}
	v2.UseTable(fwID)
	if _, _, _, err := v2.Classify(parsePacket(t, "10.0.0.1 192.168.1.1 1234 80 6")); err != nil {
		t.Fatal(err)
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit: %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit\noutput:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "serving 2 tables") {
		t.Fatalf("missing tables banner in output:\n%s", out.String())
	}
}

func parsePacket(t *testing.T, s string) rule.Packet {
	t.Helper()
	key, err := rule.ParsePacket(s)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

package core

import (
	"reflect"
	"slices"
	"testing"

	"hpsockets/internal/cluster"
	"hpsockets/internal/ktcp"
	"hpsockets/internal/netsim"
	"hpsockets/internal/via"
)

// TestConfigSurface pins the exported fields of the testbed's Config
// structs. Each one is there because code outside tests varies it; a
// cost no caller varies is an unexported constant beside the code that
// charges it.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"cluster.Config.CPUsPerNode",
		"core.SVConfig.ChunkSize",
		"core.SVConfig.CreditBatch",
		"core.SVConfig.Credits",
		"core.SVConfig.DialTimeout",
		"core.SVConfig.RendezvousThreshold",
		"ktcp.Config.MSS",
		"ktcp.Config.MaxRetries",
		"ktcp.Config.RTO",
		"via.Config.ConnTimeout",
	}
	var got []string
	for _, v := range []any{cluster.Config{}, SVConfig{}, ktcp.Config{}, netsim.Config{}, via.Config{}} {
		typ := reflect.TypeOf(v)
		for _, f := range reflect.VisibleFields(typ) {
			if f.IsExported() {
				got = append(got, typ.String()+"."+f.Name)
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("exported Config fields = %v, want %v\n"+
			"a new exported field needs a caller outside tests that varies it; "+
			"a value nobody varies is a constant", got, want)
	}
}

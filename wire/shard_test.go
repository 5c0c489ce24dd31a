package wire

import (
	"reflect"
	"strings"
	"testing"
)

func TestShardRequestRoundTrip(t *testing.T) {
	r := ShardRequest{Targets: []string{"glucose", "benzphetamine"}, Seed: 42}
	data, err := MarshalShardRequest(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalShardRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	r.Schema = SchemaVersion
	if !reflect.DeepEqual(r, back) {
		t.Fatalf("round trip changed the request:\n%+v\nvs\n%+v", r, back)
	}
	// Zero seed stays omitted on the wire — "use the fleet's seed".
	data, err = MarshalShardRequest(ShardRequest{Targets: []string{"glucose"}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "seed") {
		t.Fatalf("zero seed serialized explicitly: %s", data)
	}
}

func TestShardResponseRoundTrip(t *testing.T) {
	r := ShardResponse{Shard: 3}
	data, err := MarshalShardResponse(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalShardResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	r.Schema = SchemaVersion
	if !reflect.DeepEqual(r, back) {
		t.Fatalf("round trip changed the response:\n%+v\nvs\n%+v", r, back)
	}
}

func TestShardStrictDecoding(t *testing.T) {
	reqCases := []struct {
		name, payload, wantErr string
	}{
		{"no targets", `{"schema":2,"targets":[]}`, "no targets"},
		{"missing targets", `{"schema":2}`, "no targets"},
		{"empty target", `{"schema":2,"targets":["glucose",""]}`, "target 1 is empty"},
		{"schema skew", `{"schema":3,"targets":["glucose"]}`, "schema 3"},
		{"unknown field", `{"schema":2,"targets":["glucose"],"workers":4}`, "unknown field"},
		{"truncated", `{"schema":2,"targets":["glu`, "unexpected"},
	}
	for _, tc := range reqCases {
		t.Run("request/"+tc.name, func(t *testing.T) {
			_, err := UnmarshalShardRequest([]byte(tc.payload))
			if err == nil {
				t.Fatalf("decoder accepted %s", tc.payload)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	respCases := []struct {
		name, payload, wantErr string
	}{
		{"negative shard", `{"schema":2,"shard":-1}`, "negative"},
		{"schema skew", `{"schema":3,"shard":0}`, "schema 3"},
		{"unknown field", `{"schema":2,"shard":0,"extra":1}`, "unknown field"},
	}
	for _, tc := range respCases {
		t.Run("response/"+tc.name, func(t *testing.T) {
			_, err := UnmarshalShardResponse([]byte(tc.payload))
			if err == nil {
				t.Fatalf("decoder accepted %s", tc.payload)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	// Marshal validates too: an empty request must be refused at encode
	// time, not shipped for the server to reject.
	if _, err := MarshalShardRequest(ShardRequest{}); err == nil {
		t.Fatal("encoder accepted a request naming no targets")
	}
}

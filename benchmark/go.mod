// The benchmark is a module of its own so that the repository's tier-1
// `go build ./... && go test ./...` neither builds nor depends on it. The
// module path sits under fractal/ so it may import fractal/internal/...
module fractal/benchmark

go 1.22

require fractal v0.0.0

replace fractal => ../

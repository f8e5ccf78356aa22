// atload is the repo's benchmark. It is a module of its own so that the
// main module's `go build ./... && go test ./...` neither compiles nor runs
// it; the import path prefix atmatrix/ is what lets it import
// atmatrix/internal/... through the replace below.
module atmatrix/atload

go 1.22

require atmatrix v0.0.0

replace atmatrix => ../

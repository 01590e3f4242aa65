package trace

// EncodeStream is encodeStream for the package's external tests, which
// need streams of short chunks that no exported writer setting makes.
var EncodeStream = encodeStream

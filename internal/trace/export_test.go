package trace

// ChunkLen exposes the recorder's chunk length to the external tests.
const ChunkLen = chunkLen

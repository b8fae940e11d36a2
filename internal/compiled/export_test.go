package compiled

// BatchGroup exports G for the differential tests probing batch lengths
// around it.
const BatchGroup = batchGroup

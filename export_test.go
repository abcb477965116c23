package gompi

// ReqSlabLen exposes newRequest's slab length to the external
// allocation guards, which derive their expected malloc counts from it.
const ReqSlabLen = reqSlabLen

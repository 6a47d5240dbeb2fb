package daemon

// StatusOfError exposes the error→HTTP-status mapping to black-box tests.
var StatusOfError = statusOf

// AppendQueryResponse exposes the 200 body encoder to black-box tests.
var AppendQueryResponse = appendQueryResponse

// Generic XDR stream handle — the C++ port of the Sun XDR micro-layer.
//
// The 1984 Sun code centres on `struct XDR`: an operation tag `x_op`
// (ENCODE / DECODE / FREE), a function-pointer table `x_ops`
// (putlong/getlong/putbytes/getbytes/...), a cursor `x_private` and a
// remaining-space counter `x_handy`.  Every primitive codec dispatches on
// `x_op` at run time, and every buffer touch re-checks `x_handy` — these
// are precisely the interpretive overheads the paper's specializer
// removes (paper §3.1, §3.2).
//
// Faithfulness notes:
//  * the virtual functions below are the `x_ops` table (one indirect
//    branch per item, as in the original),
//  * primitive codecs (see primitives.h) keep the bool_t return
//    convention and the x_op switch verbatim,
//  * XDR_FREE is retained even though C++ value types make it a no-op
//    for scalars; container codecs release storage under it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace tempo::xdr {

// XDR operates on 4-byte units (RFC 4506 §3).
inline constexpr std::size_t kXdrUnit = 4;

enum class XdrOp : std::uint8_t {
  kEncode = 0,  // XDR_ENCODE
  kDecode = 1,  // XDR_DECODE
  kFree = 2,    // XDR_FREE
};

class XdrStream {
 public:
  virtual ~XdrStream() = default;

  XdrStream(const XdrStream&) = delete;
  XdrStream& operator=(const XdrStream&) = delete;

  XdrOp op() const { return op_; }
  void set_op(XdrOp op) { op_ = op; }

  // --- the x_ops function table -------------------------------------
  // XDR_PUTLONG: write one 4-byte unit (big-endian on the wire).
  virtual bool putlong(std::int32_t v) = 0;
  // XDR_GETLONG: read one 4-byte unit.
  virtual bool getlong(std::int32_t* v) = 0;
  // XDR_PUTBYTES: write raw bytes (caller handles XDR padding).
  virtual bool putbytes(ByteSpan data) = 0;
  // XDR_GETBYTES: read raw bytes.
  virtual bool getbytes(MutableByteSpan out) = 0;
  // XDR_GETPOS / XDR_SETPOS: stream cursor in bytes.
  virtual std::size_t getpos() const = 0;
  virtual bool setpos(std::size_t pos) = 0;
  // XDR_INLINE: claim `n` contiguous buffer bytes for direct access, or
  // nullptr if the stream cannot expose its buffer (e.g. record stream
  // mid-fragment).  `n` must be a multiple of kXdrUnit.
  virtual std::uint8_t* inline_bytes(std::size_t n) = 0;
  // Bytes inline_bytes could claim from the cursor on, the x_handy of a
  // memory stream; 0 for streams that cannot inline.
  virtual std::size_t inline_remaining() const { return 0; }

 protected:
  explicit XdrStream(XdrOp op) : op_(op) {}

 private:
  XdrOp op_;
};

}  // namespace tempo::xdr

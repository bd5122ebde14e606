// Memory-buffer XDR stream — port of Sun's xdrmem.c.
//
// This is the stream the paper's Figures 3 and 5 are about: every
// putlong/getlong decrements `x_handy` and tests it for overflow before
// touching the buffer.  The specializer folds that accounting away when
// the message layout is static.
#pragma once

#include <cstdint>

#include "xdr/xdr.h"

namespace tempo::xdr {

class XdrMem final : public XdrStream {
 public:
  // The stream neither owns nor resizes the buffer (exactly like
  // xdrmem_create over a caller-supplied char*).
  XdrMem(MutableByteSpan buffer, XdrOp op)
      : XdrStream(op),
        base_(buffer.data()),
        private_(buffer.data()),
        handy_(static_cast<std::int64_t>(buffer.size())),
        size_(buffer.size()) {}

  // Decode-only view over const caller-owned bytes — the zero-copy
  // dispatch path reads receive buffers in place without copying them
  // into mutable scratch first.  An encode op over a const buffer is a
  // caller bug; the stream then starts exhausted so every put fails
  // instead of writing through the const view.
  XdrMem(ByteSpan buffer, XdrOp op)
      : XdrStream(op),
        base_(const_cast<std::uint8_t*>(buffer.data())),
        private_(base_),
        handy_(op == XdrOp::kEncode
                   ? -1
                   : static_cast<std::int64_t>(buffer.size())),
        size_(op == XdrOp::kEncode ? 0 : buffer.size()) {}

  bool putlong(std::int32_t v) override;
  bool getlong(std::int32_t* v) override;
  bool putbytes(ByteSpan data) override;
  bool getbytes(MutableByteSpan out) override;
  std::size_t getpos() const override;
  bool setpos(std::size_t pos) override;
  std::uint8_t* inline_bytes(std::size_t n) override;
  std::size_t inline_remaining() const override {
    return handy_ > 0 ? static_cast<std::size_t>(handy_) : 0;
  }

  // Bytes consumed so far (== getpos for this stream).
  std::size_t position() const { return getpos(); }
  // Remaining capacity, the x_handy field.
  std::int64_t handy() const { return handy_; }

 private:
  std::uint8_t* base_;
  std::uint8_t* private_;  // x_private: next read/write location
  std::int64_t handy_;     // x_handy: space left
  std::size_t size_;
};

}  // namespace tempo::xdr

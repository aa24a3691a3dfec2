#include "storage/codec.hpp"

namespace fbfs::io::codec {

Policy parse_policy(const std::string& name) {
  if (name == "raw") return Policy::kRaw;
  if (name == "bitmap") return Policy::kBitmap;
  if (name == "varint") return Policy::kVarint;
  if (name == "auto") return Policy::kAuto;
  FB_CHECK_MSG(false, "unknown update codec \"" << name
                                                << "\"; valid: auto | raw | "
                                                   "bitmap | varint");
  return Policy::kRaw;
}

const char* to_string(Policy policy) {
  switch (policy) {
    case Policy::kRaw:
      return "raw";
    case Policy::kBitmap:
      return "bitmap";
    case Policy::kVarint:
      return "varint";
    case Policy::kAuto:
      return "auto";
  }
  return "?";
}

const char* to_string(Format format) {
  switch (format) {
    case Format::kRaw:
      return "raw";
    case Format::kBitmap:
      return "bitmap";
    case Format::kVarint:
      return "varint";
  }
  return "?";
}

FileHeader probe(Device& device, const std::string& name) {
  auto src = open_stream_reader(device, name, {.buffer_bytes = 4096});
  return detail::read_header(*src, name);
}

}  // namespace fbfs::io::codec

#include "core/wire_format.h"

namespace nexus {

const char* WireFormatName(WireFormat f) {
  switch (f) {
    case WireFormat::kText:
      return "text";
    case WireFormat::kBinary:
      return "binary";
  }
  return "?";
}

}  // namespace nexus

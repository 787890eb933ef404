#include "hw/mac.hpp"

#include <sstream>

namespace saber::hw {

std::string CycleStats::to_string() const {
  std::ostringstream os;
  os << "total=" << total << " compute=" << compute << " preload=" << preload
     << " stall(pub=" << stall_public_load << ", sec=" << stall_secret_load
     << ", acc=" << stall_accumulator << ") readout=" << readout
     << " pipeline=" << pipeline << " overhead=" << overhead() << " ("
     << static_cast<int>(overhead_fraction() * 100.0 + 0.5) << "%)";
  return os.str();
}

}  // namespace saber::hw

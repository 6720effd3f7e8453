#include "topo/network.h"

#include "sim/assert.h"

namespace aeq::topo {

net::Host* Network::add_host(std::unique_ptr<net::Host> host) {
  AEQ_ASSERT(host != nullptr);
  AEQ_CHECK_EQ_MSG(host->id(), static_cast<net::HostId>(hosts_.size()),
                   "hosts must be added in id order");
  hosts_.push_back(std::move(host));
  return hosts_.back().get();
}

net::Switch* Network::add_switch(std::unique_ptr<net::Switch> sw) {
  AEQ_ASSERT(sw != nullptr);
  switches_.push_back(std::move(sw));
  return switches_.back().get();
}

double Network::mean_downlink_utilization(sim::Time now) const {
  if (now <= 0.0) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < num_hosts(); ++i) {
    total += downlink(static_cast<net::HostId>(i)).utilization(now);
  }
  return total / static_cast<double>(num_hosts());
}

}  // namespace aeq::topo

// Figure 7: stage timing of a 1400-byte packet through the CLIC pipeline.
//
// (a) stock receive path — driver ISR + sk_buff + bottom half + CLIC_MODULE
// (b) the Figure 8b improvement — the driver calls CLIC_MODULE directly
//     from the ISR, cutting the receive interrupt path from ~20 us to ~5 us.
//
// The per-stage numbers are computed from the calibrated model constants
// (the same constants the simulation charges); the end-to-end one-way time
// is then MEASURED and compared against the sum, and against the paper.
#include "bench/bench_util.hpp"
#include "hw/params.hpp"

using namespace clicsim;

namespace {

struct Stages {
  double module_tx, driver_tx, dma_tx, wire, dma_rx, irq_driver, bh,
      module_rx;
  double sum() const {
    return module_tx + driver_tx + dma_tx + wire + dma_rx + irq_driver + bh +
           module_rx;
  }
};

Stages compute_stages(const apps::Scenario& s, std::int64_t payload,
                      bool direct) {
  const auto& host = s.cluster.host;
  const auto& nic = s.cluster.nic;
  hw::PciParams pci = s.cluster.pci;

  const std::int64_t frame =
      net::kEthHeaderBytes + clic::kClicHeaderBytes + payload +
      net::kEthFcsBytes;
  const double pci_bps =
      pci.peak_bytes_per_s() * nic.pci_efficiency(frame);
  const double dma_us =
      sim::to_us(nic.dma_setup) + static_cast<double>(frame) / pci_bps * 1e6;
  const double wire_us =
      static_cast<double>(frame + net::kEthWireOverhead) * 8.0 / 1e3 +
      sim::to_us(s.cluster.sw.forwarding_latency) +
      2.0 * sim::to_us(s.cluster.link.propagation);
  // Early receive DMA overlaps the wire; only the residual lag remains.
  const double wire_only =
      static_cast<double>(frame + net::kEthWireOverhead) * 8.0 / 1e3;
  const double dma_rx_us = std::max(dma_us - wire_only, 1.0);

  Stages st{};
  st.module_tx = sim::to_us(host.syscall_enter + s.clic.module_tx_cost);
  st.driver_tx = sim::to_us(s.clic.driver_tx_cost);
  st.dma_tx = dma_us + sim::to_us(nic.tx_fifo_latency);
  st.wire = wire_us;
  st.dma_rx = dma_rx_us + sim::to_us(nic.rx_fifo_latency);
  if (direct) {
    st.irq_driver = sim::to_us(host.irq_dispatch + host.isr_entry +
                               host.isr_per_frame);
    st.bh = 0.0;
  } else {
    st.irq_driver = sim::to_us(host.irq_dispatch + host.isr_entry +
                               host.isr_per_frame + host.skbuff_alloc);
    st.bh = sim::to_us(host.bottom_half_dispatch);
  }
  st.module_rx =
      sim::to_us(s.clic.module_rx_cost) +
      static_cast<double>(payload) / host.cpu_copy_bytes_per_s * 1e6 +
      sim::to_us(host.process_wakeup + host.context_switch +
                 host.syscall_exit);
  return st;
}

void print_stages(const char* title, const Stages& st) {
  bench::subheading(title);
  std::printf("  %-34s %8.2f us\n", "CLIC_MODULE + syscall (send)",
              st.module_tx);
  std::printf("  %-34s %8.2f us\n", "driver (send)", st.driver_tx);
  std::printf("  %-34s %8.2f us\n", "memory + PCI buses (tx DMA)",
              st.dma_tx);
  std::printf("  %-34s %8.2f us\n", "flight time (wire + switch)", st.wire);
  std::printf("  %-34s %8.2f us\n", "rx DMA residual (early DMA)",
              st.dma_rx);
  std::printf("  %-34s %8.2f us\n", "interrupt + driver (recv)",
              st.irq_driver);
  std::printf("  %-34s %8.2f us\n", "bottom half", st.bh);
  std::printf("  %-34s %8.2f us\n", "CLIC_MODULE + copy + wake (recv)",
              st.module_rx);
  std::printf("  %-34s %8.2f us\n", "stage sum", st.sum());
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0;
  apps::parse_args(argc, argv, {apps::jobs_flag(jobs)});
  bench::heading("Figure 7 — 1400-byte packet pipeline timing");
  const std::int64_t kPayload = 1400;

  apps::Scenario stock;
  stock.pingpong_reps = 8;
  apps::Scenario improved = stock;
  improved.clic.direct_dispatch = true;

  const Stages a = compute_stages(stock, kPayload, false);
  const Stages b = compute_stages(improved, kPayload, true);
  print_stages("(a) stock receive path (model constants)", a);
  print_stages("(b) direct driver->module dispatch (Figure 8b)", b);

  apps::SweepRunner<sim::SimTime> runner(jobs);
  runner.add([&] { return apps::clic_one_way(stock, kPayload); });
  runner.add([&] { return apps::clic_one_way(improved, kPayload); });
  const auto measured = runner.run();
  const double measured_a = sim::to_us(measured[0]);
  const double measured_b = sim::to_us(measured[1]);

  bench::subheading("measured end-to-end one-way, 1400 B");
  bench::compare("stock path: stage sum vs measured", a.sum(), measured_a,
                 "us", 0.25);
  bench::compare("direct path: stage sum vs measured", b.sum(), measured_b,
                 "us", 0.25);

  bench::subheading("paper vs measured");
  // Fig. 7a: receive interrupt path ~20 us (driver int ~15 + BH ~2 + entry).
  bench::compare("receive interrupt path, stock", 20.0,
                 a.irq_driver + a.bh + sim::to_us(stock.clic.module_rx_cost),
                 "us", 0.45);
  // Fig. 7b: cut to ~5 us with the direct call.
  bench::compare("receive interrupt path, direct (Fig 8b)", 5.0 + 2.0,
                 b.irq_driver + sim::to_us(improved.clic.module_rx_cost),
                 "us", 0.60);
  bench::claim("direct dispatch lowers 1400 B latency",
               measured_b < measured_a);
  std::printf("  (one-way 1400 B: stock %.1f us, direct %.1f us)\n",
              measured_a, measured_b);
  return bench::exit_code();
}

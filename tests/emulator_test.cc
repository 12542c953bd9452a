// Tests for Maya's transparent device emulator: resource tracking, OOM
// detection, misuse flagging, context-aware stateful protocols, collective
// lifecycle, and host-delay measurement (§4.1-4.2).
#include <gtest/gtest.h>

#include "src/dlf/host_cost_model.h"
#include "src/emulator/emulator.h"

namespace maya {
namespace {

class EmulatorTest : public ::testing::Test {
 protected:
  EmulatorTest()
      : emulation_(EmulationSpec{H100Cluster(8)}),
        worker_(emulation_.CreateWorker(0, &clock_)) {}

  VirtualHostClock clock_;
  JobEmulation emulation_;
  WorkerEmulator& worker_;
};

// ---- Device management --------------------------------------------------------

TEST_F(EmulatorTest, DeviceCountMatchesNodeShape) {
  int count = 0;
  EXPECT_EQ(worker_.cudaGetDeviceCount(&count), CudaError::kSuccess);
  EXPECT_EQ(count, 8);
}

TEST_F(EmulatorTest, SetGetDevice) {
  EXPECT_EQ(worker_.cudaSetDevice(3), CudaError::kSuccess);
  int device = -1;
  EXPECT_EQ(worker_.cudaGetDevice(&device), CudaError::kSuccess);
  EXPECT_EQ(device, 3);
  EXPECT_EQ(worker_.cudaSetDevice(8), CudaError::kErrorInvalidValue);
}

TEST_F(EmulatorTest, MemGetInfoMimicsDevice) {
  uint64_t free_bytes = 0;
  uint64_t total_bytes = 0;
  ASSERT_EQ(worker_.cudaMemGetInfo(&free_bytes, &total_bytes), CudaError::kSuccess);
  EXPECT_EQ(total_bytes, H100Spec().hbm_bytes);
  EXPECT_EQ(free_bytes, total_bytes);

  DevPtr ptr = 0;
  ASSERT_EQ(worker_.cudaMalloc(&ptr, 1ULL << 30), CudaError::kSuccess);
  ASSERT_EQ(worker_.cudaMemGetInfo(&free_bytes, &total_bytes), CudaError::kSuccess);
  EXPECT_EQ(free_bytes, total_bytes - (1ULL << 30));
}

// ---- Memory tracking -----------------------------------------------------------

TEST_F(EmulatorTest, MallocFreeTracksUsage) {
  DevPtr a = 0;
  DevPtr b = 0;
  ASSERT_EQ(worker_.cudaMalloc(&a, 1000), CudaError::kSuccess);
  ASSERT_EQ(worker_.cudaMalloc(&b, 2000), CudaError::kSuccess);
  EXPECT_NE(a, b);
  // Sizes round up to the 512-byte allocator granule.
  EXPECT_EQ(worker_.used_device_bytes(), 1024u + 2048u);
  EXPECT_EQ(worker_.cudaFree(a), CudaError::kSuccess);
  EXPECT_EQ(worker_.used_device_bytes(), 2048u);
  EXPECT_EQ(worker_.peak_device_bytes(), 1024u + 2048u);
}

TEST_F(EmulatorTest, OutOfMemoryDetected) {
  DevPtr ptr = 0;
  EXPECT_EQ(worker_.cudaMalloc(&ptr, H100Spec().hbm_bytes + 1), CudaError::kErrorMemoryAllocation);
  EXPECT_EQ(ptr, 0u);
  // Allocation up to capacity succeeds.
  EXPECT_EQ(worker_.cudaMalloc(&ptr, H100Spec().hbm_bytes / 2), CudaError::kSuccess);
  // And a second over-the-limit allocation fails without corrupting state.
  DevPtr second = 0;
  EXPECT_EQ(worker_.cudaMalloc(&second, H100Spec().hbm_bytes), CudaError::kErrorMemoryAllocation);
  EXPECT_EQ(worker_.used_device_bytes(), worker_.peak_device_bytes());
}

TEST_F(EmulatorTest, InvalidFreeFlagged) {
  EXPECT_EQ(worker_.cudaFree(0xdead), CudaError::kErrorInvalidDevicePointer);
  EXPECT_EQ(worker_.cudaFree(0), CudaError::kSuccess);  // freeing null is legal
  DevPtr ptr = 0;
  ASSERT_EQ(worker_.cudaMalloc(&ptr, 64), CudaError::kSuccess);
  EXPECT_EQ(worker_.cudaFree(ptr), CudaError::kSuccess);
  EXPECT_EQ(worker_.cudaFree(ptr), CudaError::kErrorInvalidDevicePointer);  // double free
  EXPECT_GE(worker_.stats().errors_flagged, 2u);
}

TEST_F(EmulatorTest, HostAllocSeparateFromDevice) {
  DevPtr host = 0;
  ASSERT_EQ(worker_.cudaHostAlloc(&host, 4096), CudaError::kSuccess);
  EXPECT_EQ(worker_.used_device_bytes(), 0u);
  EXPECT_EQ(worker_.cudaFreeHost(host), CudaError::kSuccess);
  EXPECT_EQ(worker_.cudaFreeHost(host), CudaError::kErrorInvalidValue);
}

// ---- Memcpy validation ------------------------------------------------------------

TEST_F(EmulatorTest, MemcpyValidatesDevicePointers) {
  DevPtr device = 0;
  ASSERT_EQ(worker_.cudaMalloc(&device, 4096), CudaError::kSuccess);
  // Valid H2D (host side unvalidated).
  EXPECT_EQ(worker_.cudaMemcpyAsync(device, 0x1000, 4096, MemcpyKind::kHostToDevice,
                                    StreamHandle{0}),
            CudaError::kSuccess);
  // Bad destination device pointer.
  EXPECT_EQ(worker_.cudaMemcpyAsync(0xbad, 0x1000, 16, MemcpyKind::kHostToDevice,
                                    StreamHandle{0}),
            CudaError::kErrorInvalidDevicePointer);
  // Bad source device pointer.
  EXPECT_EQ(worker_.cudaMemcpyAsync(0x1000, 0xbad, 16, MemcpyKind::kDeviceToHost,
                                    StreamHandle{0}),
            CudaError::kErrorInvalidDevicePointer);
}

TEST_F(EmulatorTest, SmallD2hCopiesAreMocked) {
  DevPtr device = 0;
  ASSERT_EQ(worker_.cudaMalloc(&device, 1 << 20), CudaError::kSuccess);
  EXPECT_EQ(worker_.cudaMemcpyAsync(0x1000, device, 128, MemcpyKind::kDeviceToHost,
                                    StreamHandle{0}),
            CudaError::kSuccess);
  EXPECT_EQ(worker_.stats().mocked_small_copies, 1u);
  // Large copies are not mocked.
  EXPECT_EQ(worker_.cudaMemcpyAsync(0x1000, device, 1 << 20, MemcpyKind::kDeviceToHost,
                                    StreamHandle{0}),
            CudaError::kSuccess);
  EXPECT_EQ(worker_.stats().mocked_small_copies, 1u);
}

TEST_F(EmulatorTest, SyncMemcpyAppendsStreamSynchronize) {
  DevPtr device = 0;
  ASSERT_EQ(worker_.cudaMalloc(&device, 4096), CudaError::kSuccess);
  ASSERT_EQ(worker_.cudaMemcpy(device, 0x1000, 4096, MemcpyKind::kHostToDevice),
            CudaError::kSuccess);
  const WorkerTrace trace = worker_.TakeTrace();
  ASSERT_GE(trace.ops.size(), 3u);  // malloc + copy kernel + sync
  EXPECT_EQ(trace.ops.back().type, TraceOpType::kStreamSynchronize);
}

// ---- Streams and events --------------------------------------------------------------

TEST_F(EmulatorTest, StreamLifecycle) {
  StreamHandle stream;
  ASSERT_EQ(worker_.cudaStreamCreate(&stream), CudaError::kSuccess);
  EXPECT_NE(stream.id, 0u);
  EXPECT_EQ(worker_.cudaStreamSynchronize(stream), CudaError::kSuccess);
  EXPECT_EQ(worker_.cudaStreamDestroy(stream), CudaError::kSuccess);
  // Using a destroyed stream is flagged.
  EXPECT_EQ(worker_.cudaStreamSynchronize(stream), CudaError::kErrorInvalidResourceHandle);
  // The default stream cannot be destroyed.
  EXPECT_EQ(worker_.cudaStreamDestroy(StreamHandle{0}), CudaError::kErrorInvalidResourceHandle);
}

TEST_F(EmulatorTest, EventVersioningTracksReuse) {
  EventHandle event;
  ASSERT_EQ(worker_.cudaEventCreate(&event), CudaError::kSuccess);
  ASSERT_EQ(worker_.cudaEventRecord(event, StreamHandle{0}), CudaError::kSuccess);
  ASSERT_EQ(worker_.cudaEventRecord(event, StreamHandle{0}), CudaError::kSuccess);
  ASSERT_EQ(worker_.cudaStreamWaitEvent(StreamHandle{0}, event), CudaError::kSuccess);
  const WorkerTrace trace = worker_.TakeTrace();
  ASSERT_EQ(trace.ops.size(), 3u);
  EXPECT_EQ(trace.event(trace.ops[0]).version, 1u);
  EXPECT_EQ(trace.event(trace.ops[1]).version, 2u);
  // The wait binds to the most recent record.
  EXPECT_EQ(trace.event(trace.ops[2]).version, 2u);
}

TEST_F(EmulatorTest, WaitOnUnrecordedEventIsVersionZero) {
  EventHandle event;
  ASSERT_EQ(worker_.cudaEventCreate(&event), CudaError::kSuccess);
  ASSERT_EQ(worker_.cudaStreamWaitEvent(StreamHandle{0}, event), CudaError::kSuccess);
  const WorkerTrace trace = worker_.TakeTrace();
  EXPECT_EQ(trace.event(trace.ops.back()).version, 0u);
}

TEST_F(EmulatorTest, InvalidEventHandleFlagged) {
  EXPECT_EQ(worker_.cudaEventRecord(EventHandle{999}, StreamHandle{0}),
            CudaError::kErrorInvalidResourceHandle);
  EXPECT_EQ(worker_.cudaEventSynchronize(EventHandle{999}),
            CudaError::kErrorInvalidResourceHandle);
}

// ---- Context-aware library protocols ---------------------------------------------------

TEST_F(EmulatorTest, CublasInheritsBoundStream) {
  CublasHandle cublas;
  ASSERT_EQ(worker_.cublasCreate(&cublas), CudaError::kSuccess);
  StreamHandle stream;
  ASSERT_EQ(worker_.cudaStreamCreate(&stream), CudaError::kSuccess);
  ASSERT_EQ(worker_.cublasSetStream(cublas, stream), CudaError::kSuccess);
  ASSERT_EQ(worker_.cublasGemmEx(cublas, 128, 128, 128, DType::kBf16), CudaError::kSuccess);
  const WorkerTrace trace = worker_.TakeTrace();
  ASSERT_EQ(trace.ops.size(), 1u);
  EXPECT_EQ(trace.ops[0].type, TraceOpType::kKernelLaunch);
  EXPECT_EQ(trace.ops[0].stream, stream.id);  // context-aware modeling (§4.1)
  EXPECT_EQ(trace.kernel(trace.ops[0]).kind, KernelKind::kGemm);
}

TEST_F(EmulatorTest, GemmWithInvalidHandleFlagged) {
  EXPECT_EQ(worker_.cublasGemmEx(CublasHandle{404}, 8, 8, 8, DType::kFp32),
            CudaError::kErrorInvalidResourceHandle);
}

TEST_F(EmulatorTest, CudnnDescriptorProtocolBuildsConvMetadata) {
  CudnnHandle cudnn;
  ASSERT_EQ(worker_.cudnnCreate(&cudnn), CudaError::kSuccess);
  CudnnTensorDesc x_desc;
  CudnnFilterDesc w_desc;
  CudnnConvDesc conv_desc;
  ASSERT_EQ(worker_.cudnnCreateTensorDescriptor(&x_desc), CudaError::kSuccess);
  ASSERT_EQ(worker_.cudnnCreateFilterDescriptor(&w_desc), CudaError::kSuccess);
  ASSERT_EQ(worker_.cudnnCreateConvolutionDescriptor(&conv_desc), CudaError::kSuccess);
  // Calling the convolution before descriptors are configured is an error
  // the emulator detects (§4.1 "Resource Tracking").
  EXPECT_EQ(worker_.cudnnConvolutionForward(cudnn, x_desc, w_desc, conv_desc),
            CudaError::kErrorInvalidValue);
  ASSERT_EQ(worker_.cudnnSetTensor4dDescriptor(x_desc, 8, 64, 56, 56, DType::kFp32),
            CudaError::kSuccess);
  ASSERT_EQ(worker_.cudnnSetFilter4dDescriptor(w_desc, 128, 64, 3, 3, DType::kFp32),
            CudaError::kSuccess);
  ASSERT_EQ(worker_.cudnnSetConvolution2dDescriptor(conv_desc, 1, 1), CudaError::kSuccess);
  ASSERT_EQ(worker_.cudnnConvolutionForward(cudnn, x_desc, w_desc, conv_desc),
            CudaError::kSuccess);
  const WorkerTrace trace = worker_.TakeTrace();
  ASSERT_EQ(trace.ops.size(), 1u);
  const KernelDesc& kernel = trace.kernel(trace.ops[0]);
  EXPECT_EQ(kernel.kind, KernelKind::kConvForward);
  EXPECT_EQ(kernel.params[0], 8);    // N assembled from the tensor descriptor
  EXPECT_EQ(kernel.params[4], 128);  // K from the filter descriptor
}

// ---- NCCL ------------------------------------------------------------------------------

TEST_F(EmulatorTest, CommInitRecordsMembershipEvidence) {
  NcclUniqueId id;
  ASSERT_EQ(worker_.ncclGetUniqueId(&id), CudaError::kSuccess);
  NcclComm comm;
  ASSERT_EQ(worker_.ncclCommInitRank(&comm, 4, id, 2), CudaError::kSuccess);
  const WorkerTrace trace = worker_.TakeTrace();
  ASSERT_EQ(trace.comm_inits.size(), 1u);
  EXPECT_EQ(trace.comm_inits[0].comm_uid, id.value);
  EXPECT_EQ(trace.comm_inits[0].nranks, 4);
  EXPECT_EQ(trace.comm_inits[0].rank_in_comm, 2);
}

TEST_F(EmulatorTest, CommInitRejectsBadArguments) {
  NcclUniqueId id{77};
  NcclComm comm;
  EXPECT_EQ(worker_.ncclCommInitRank(&comm, 0, id, 0), CudaError::kErrorInvalidValue);
  EXPECT_EQ(worker_.ncclCommInitRank(&comm, 4, id, 4), CudaError::kErrorInvalidValue);
  EXPECT_EQ(worker_.ncclCommInitRank(&comm, 4, NcclUniqueId{0}, 1),
            CudaError::kErrorInvalidValue);
}

TEST_F(EmulatorTest, CollectivesCarrySequenceNumbers) {
  NcclUniqueId id;
  ASSERT_EQ(worker_.ncclGetUniqueId(&id), CudaError::kSuccess);
  NcclComm comm;
  ASSERT_EQ(worker_.ncclCommInitRank(&comm, 2, id, 0), CudaError::kSuccess);
  ASSERT_EQ(worker_.ncclAllReduce(1000, DType::kBf16, NcclRedOp::kSum, comm, StreamHandle{0}),
            CudaError::kSuccess);
  ASSERT_EQ(worker_.ncclAllReduce(1000, DType::kBf16, NcclRedOp::kSum, comm, StreamHandle{0}),
            CudaError::kSuccess);
  const WorkerTrace trace = worker_.TakeTrace();
  ASSERT_EQ(trace.ops.size(), 2u);
  EXPECT_EQ(trace.collective(trace.ops[0]).seq, 0u);
  EXPECT_EQ(trace.collective(trace.ops[1]).seq, 1u);
  EXPECT_EQ(trace.collective(trace.ops[0]).bytes, 2000u);  // count * sizeof(bf16)
  EXPECT_EQ(trace.collective(trace.ops[0]).comm_uid, id.value);
}

TEST_F(EmulatorTest, AllGatherPayloadIsFullBuffer) {
  NcclUniqueId id;
  ASSERT_EQ(worker_.ncclGetUniqueId(&id), CudaError::kSuccess);
  NcclComm comm;
  ASSERT_EQ(worker_.ncclCommInitRank(&comm, 4, id, 0), CudaError::kSuccess);
  ASSERT_EQ(worker_.ncclAllGather(100, DType::kFp32, comm, StreamHandle{0}),
            CudaError::kSuccess);
  const WorkerTrace trace = worker_.TakeTrace();
  EXPECT_EQ(trace.collective(trace.ops[0]).bytes, 100u * 4 * 4);
}

TEST_F(EmulatorTest, GroupedP2pFlushedAtGroupEnd) {
  NcclUniqueId id;
  ASSERT_EQ(worker_.ncclGetUniqueId(&id), CudaError::kSuccess);
  NcclComm comm;
  ASSERT_EQ(worker_.ncclCommInitRank(&comm, 2, id, 0), CudaError::kSuccess);
  ASSERT_EQ(worker_.ncclGroupStart(), CudaError::kSuccess);
  ASSERT_EQ(worker_.ncclSend(10, DType::kBf16, 1, comm, StreamHandle{0}), CudaError::kSuccess);
  ASSERT_EQ(worker_.ncclRecv(10, DType::kBf16, 1, comm, StreamHandle{0}), CudaError::kSuccess);
  EXPECT_EQ(worker_.TakeTrace().ops.size(), 0u);  // still batched
  ASSERT_EQ(worker_.ncclGroupEnd(), CudaError::kSuccess);
  const WorkerTrace trace = worker_.TakeTrace();
  ASSERT_EQ(trace.ops.size(), 2u);
  EXPECT_EQ(trace.collective(trace.ops[0]).kind, CollectiveKind::kSend);
  EXPECT_EQ(trace.collective(trace.ops[1]).kind, CollectiveKind::kRecv);
}

TEST_F(EmulatorTest, GroupEndWithoutStartFlagged) {
  EXPECT_EQ(worker_.ncclGroupEnd(), CudaError::kErrorInvalidValue);
}

// ---- Host delay measurement ----------------------------------------------------------

TEST_F(EmulatorTest, HostDelaysMeasuredFromClock) {
  clock_.Advance(5.0);
  ASSERT_EQ(worker_.cudaLaunchKernel(MakeElementwise(128, DType::kBf16), StreamHandle{0}),
            CudaError::kSuccess);
  clock_.Advance(11.0);
  ASSERT_EQ(worker_.cudaLaunchKernel(MakeElementwise(128, DType::kBf16), StreamHandle{0}),
            CudaError::kSuccess);
  const WorkerTrace trace = worker_.TakeTrace();
  ASSERT_EQ(trace.ops.size(), 2u);
  EXPECT_DOUBLE_EQ(trace.ops[0].host_delay_us, 5.0);
  EXPECT_DOUBLE_EQ(trace.ops[1].host_delay_us, 11.0);
}

TEST_F(EmulatorTest, TakeTraceRecordsPeakMemory) {
  DevPtr ptr = 0;
  ASSERT_EQ(worker_.cudaMalloc(&ptr, 1 << 20), CudaError::kSuccess);
  ASSERT_EQ(worker_.cudaFree(ptr), CudaError::kSuccess);
  const WorkerTrace trace = worker_.TakeTrace();
  EXPECT_EQ(trace.peak_device_bytes, 1u << 20);
  EXPECT_EQ(trace.final_device_bytes, 0u);
  EXPECT_EQ(trace.rank, 0);
}

TEST(JobEmulationTest, BootstrapIdsAreUniqueAndShared) {
  JobEmulation emulation(EmulationSpec{H100Cluster(8)});
  const NcclUniqueId a = emulation.bootstrap().CreateUniqueId();
  const NcclUniqueId b = emulation.bootstrap().CreateUniqueId();
  EXPECT_NE(a.value, b.value);
  EXPECT_NE(a.value, 0u);
}

TEST(JobEmulationTest, TracesReturnedInRankOrder) {
  JobEmulation emulation(EmulationSpec{H100Cluster(8)});
  VirtualHostClock clock;
  emulation.CreateWorker(2, &clock);
  emulation.CreateWorker(0, &clock);
  emulation.CreateWorker(1, &clock);
  const std::vector<WorkerTrace> traces = emulation.TakeTraces();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].rank, 0);
  EXPECT_EQ(traces[1].rank, 1);
  EXPECT_EQ(traces[2].rank, 2);
}

}  // namespace
}  // namespace maya
